(** Chrome trace-event JSON exporter (Perfetto / chrome://tracing).

    Hosts render as processes, fibers as threads. Mapping:
    - {!Sim.Probe.Span_begin}/[Span_end] -> ["B"]/["E"] (nested per thread)
    - [Async_begin]/[Async_end] -> ["b"]/["e"] with ["id"] (RDMA verbs)
    - [Instant] -> ["i"] thread-scoped
    - [Counter] -> ["C"] (numeric args plotted as counter tracks)
    - process/thread names -> ["M"] metadata

    Timestamps are virtual nanoseconds rendered as fixed-point
    microseconds with integer arithmetic only; given identical event
    streams the output is byte-identical. Events with pid -1 (scheduler,
    experiment harness) are grouped under synthetic process 65535. *)

val engine_pid : int
(** Synthetic pid (65535) that hostless events are exported under. *)

val fixed_ts : int -> string
(** Virtual ns as fixed-point µs ("%d.%03d"), the only timestamp format
    this exporter emits. *)

(** [extra] is a list of pre-rendered JSON event objects appended verbatim
    after the probe events — the provenance exporter uses it for flow and
    nestable-async phases that have no {!Sim.Probe.kind}. Callers are
    responsible for rendering them with [Json.add_string] (the escaper the
    event path uses) and {!fixed_ts} so the file stays byte-deterministic. *)

val to_buffer :
  Stdlib.Buffer.t ->
  ?extra:string list ->
  processes:(int * string) list ->
  threads:((int * int) * string) list ->
  Sim.Probe.event list ->
  unit

val to_string :
  ?extra:string list ->
  processes:(int * string) list ->
  threads:((int * int) * string) list ->
  Sim.Probe.event list ->
  string

val write_file :
  string ->
  ?extra:string list ->
  processes:(int * string) list ->
  threads:((int * int) * string) list ->
  Sim.Probe.event list ->
  unit
