(** Phase-breakdown accumulator: folds span events into per-(category,
    name) duration statistics.

    Fed streaming from the tracer's sink — not from the ring buffer — so
    statistics cover the whole run even when the ring has dropped old
    events. Synchronous spans pair LIFO per (pid, tid) through the
    shared {!Attrib} core (which also yields per-span {e exclusive}
    time); async spans pair by (cat, name, id). Instants, counters and
    metadata are ignored.

    This is how the fail-over decomposition of the paper's Fig. 6 is
    checked: [failover/perm_switch] and [failover/detect] rows sum to
    [failover/total]. *)

type t

val create : unit -> t

val add : t -> Sim.Probe.event -> unit

val rows : t -> (string * string * Sim.Stats.Samples.t * int) list
(** [(cat, name, durations_ns, total_ns)] sorted by (cat, name) — a
    deterministic order regardless of hash-table iteration. *)

val find : t -> cat:string -> name:string -> Sim.Stats.Samples.t option

val total_ns : t -> cat:string -> name:string -> int
(** Sum of all recorded durations for the span; 0 if absent. *)

val unmatched : t -> int
(** End events without a matching begin (or vice versa). *)

val pp : t Fmt.t
(** Plain-text summary table: count, median/p1/p99 in µs, total, and
    share of the category's largest span. *)
