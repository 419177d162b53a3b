(** Conformance of a recorded cluster run against the pure KV model.

    The repo's one history checker: it linearizes the {e recorded
    replies} of a {!Workload.Chaos} run against {!Model.Kv} semantics,
    which is stronger than abstract-register linearizability (that
    cannot tell a [Deleted] from a [Not_found] reply). There must exist
    a single sequential order, consistent with real time, in which every
    committed reply is exactly what the pure model returns. A write
    acknowledged [Stored] whose value no later read can observe (the
    injected-bug self-test, DESIGN.md §19) fails here even though every
    replica agrees — the Appendix A invariants are blind to it by
    construction.

    Keys are independent under KV semantics, so the search runs per key
    (Wing & Gong backtracking with the key's value as the state), which
    keeps it exact yet fast on the small generated histories. *)

type witness = { ckey : string; cops : Workload.Chaos.recorded list }
(** A minimal non-conformant sub-history on one key: every op retained is
    needed — dropping any (under the soundness guard) makes the rest
    linearizable. *)

val check : Workload.Chaos.recorded list -> witness option
(** [None] = conformant. Unanswered reads are ignored (they observed
    nothing); unanswered writes and deletes may be linearized anywhere
    after invocation or — equivalently, since they always succeed — at
    the very end. *)

val pp_witness : witness Fmt.t

(** {1 Verdicts} *)

type verdict =
  | Pass
  | Not_conformant  (** Replies inconsistent with every model order. *)
  | Invariant_violation  (** Appendix A failed on raw replica state. *)
  | Stall  (** Clients never finished before the horizon. *)

val verdict_to_string : verdict -> string
val verdict_of_string : string -> verdict option
(** Stable strings for the repro bundle: ["pass"], ["not-conformant"],
    ["invariant-violation"], ["stall"]. *)

val judge : Workload.Chaos.outcome -> verdict * witness option
(** Overall verdict of a chaos run, most specific first: model
    non-conformance (with its witness), then invariant violations, then
    a liveness stall. *)

val failing : verdict -> bool

(** {1 Chaos outcomes} *)

val passed : Workload.Chaos.outcome -> bool
(** {!judge} says {!Pass}: completed, conformant and invariant-clean. *)

val pp_outcome : Workload.Chaos.outcome Fmt.t
(** One line; on a conformance failure, the minimal witness follows on
    indented lines. *)

val repro_json : Workload.Chaos.outcome -> string
(** Seed + n + scenario + violation summary, as one JSON document. *)

val parse_repro : string -> (int64 * int * Faults.Scenario.t, string) result
(** Recover the replay inputs from a repro file; {!Workload.Chaos.run}
    on them reproduces the failing run byte-identically. *)
