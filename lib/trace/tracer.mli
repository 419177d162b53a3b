(** Per-engine structured event tracer.

    A tracer bundles a bounded {!Buffer} ring, a streaming {!Breakdown}
    accumulator, and process/thread name registries. It is installed on
    an engine with {!attach} (the sink slot of {!Sim.Engine.probe});
    on an engine with no tracer, tracing costs the simulation a single
    option check per probe call.

    One tracer may be attached to several engines in sequence (the
    workload layer builds a fresh engine per experiment); host ids are
    stable across engines, so events aggregate naturally. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the event ring (default 65536). The breakdown
    accumulator is not bounded — it keeps only per-span duration
    statistics, not events. *)

val attach : t -> Sim.Engine.t -> unit
(** Install this tracer as the engine's probe sink. *)

val events : t -> Sim.Probe.event list
(** Events still in the ring, oldest first. *)

val recorded : t -> int
val dropped : t -> int

val breakdown : t -> Breakdown.t

val processes : t -> (int * string) list
(** (host id, name), sorted. *)

val threads : t -> ((int * int) * string) list
(** ((host id, fiber id), name), sorted. *)

val write_chrome : t -> string -> unit
(** Write Chrome trace-event JSON (Perfetto-loadable). Byte-identical
    across runs with equal seeds. *)

val chrome_string : t -> string

val pp_summary : t Fmt.t
(** Ring statistics plus the phase-breakdown table. *)
