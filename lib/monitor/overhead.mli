(** Observability self-profiling.

    Runs a fixed synthetic fiber workload (every op passes through a
    provenance span scope and a trace counter hook) once per
    instrumentation layer and reports wall-clock throughput plus
    [Gc.minor_words] allocation per op. The deltas between layers are
    the per-layer observability overhead; the [baseline] row doubles as
    the events/sec floor the bench job checks.

    Wall-clock numbers come from the caller's [clock] (e.g.
    [Unix.gettimeofday]) and are {e not} deterministic — they belong in
    volatile bench fields, never in byte-compared artifacts. *)

type layer = Baseline | Trace | Telemetry | Provenance | Monitor

val layer_name : layer -> string
val all_layers : layer list

type sample = {
  layer : string;
  ops : int;
  wall_s : float;
  ops_per_s : float;
  minor_words_per_op : float;
}

val run : ?fibers:int -> ?sleeps:int -> clock:(unit -> float) -> layer -> sample
(** Default workload: 32 fibers x 2000 sleeps. *)

val run_all :
  ?fibers:int -> ?sleeps:int -> clock:(unit -> float) -> unit -> sample list
(** One sample per {!all_layers}, in order (baseline first). *)

val pp_sample : sample Fmt.t
val pp : sample list Fmt.t

(** Run-attached self-cost sampling: per-subsystem wall-clock and
    [Gc.minor_words] attribution for a {e real} run, not the synthetic
    workload above. Interposes on two engine seams (the probe sink and
    the queue selfcost hook) with stride sampling. All numbers are wall-clock and
    volatile — report them, never byte-compare them; the virtual clock
    never observes any of it. *)
module Attached : sig
  type t

  val create : ?stride:int -> clock:(unit -> float) -> unit -> t
  (** [stride] (default 64): measure one event in [stride] per seam.
      [clock] is wall seconds (e.g. [Unix.gettimeofday]); calibration of
      the measurement's own allocation happens here. *)

  val attach : t -> Sim.Engine.t -> unit
  (** Account the engine's queue ops to this sampler's one selfcost
      (shared by every engine it is attached to) and wrap its probe
      sink (if one is installed — attach {e after} the tracer). Trace
      and provenance cost split on the event category (provenance
      events are [cat="prov"]). *)

  val measure_run : t -> (unit -> 'a) -> 'a
  (** Measure a whole run (wall + minor words); the report's
      [engine_dispatch] row is this minus every attributed seam. May be
      called several times; measurements accumulate. *)

  type row = {
    r_layer : string;
    r_events : int;
    r_sampled : int;
    r_wall_s : float;
    r_minor_words : float;
  }

  val report : t -> row list
  (** [run_total; engine_dispatch; queue_ops; trace; provenance], wall
      and words extrapolated from the sampled fraction to all events. *)

  val pp_row : row Fmt.t
  val pp : row list Fmt.t
end
