(* Chrome trace-event JSON ("JSON Object Format"), loadable in Perfetto
   (ui.perfetto.dev) and chrome://tracing.

   Determinism: timestamps are integer nanoseconds rendered as fixed-point
   microseconds ("%d.%03d") — no float formatting anywhere on the event
   path — and process/thread metadata is emitted in sorted order, so equal
   seeds produce byte-identical files. *)

(* Host -1 ("no host": scheduler, experiment harness fibers) maps to a
   synthetic high pid — trace viewers dislike negative pids. *)
let engine_pid = 65535
let out_pid p = if p < 0 then engine_pid else p

(* Also used by the provenance exporter, which renders flow and
   nestable-async phases that have no [Probe.kind]: one timestamp format
   (and [Json.add_string] for strings) keeps those events byte-deterministic
   too. *)
let fixed_ts ns = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000)
let add_ts b ns = Stdlib.Buffer.add_string b (fixed_ts ns)

let add_args b args =
  Stdlib.Buffer.add_string b ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Stdlib.Buffer.add_char b ',';
      Json.add_string b k;
      Stdlib.Buffer.add_char b ':';
      (* Numeric-looking values go out as JSON numbers so Perfetto can
         plot counters. *)
      match int_of_string_opt v with
      | Some n -> Stdlib.Buffer.add_string b (string_of_int n)
      | None -> Json.add_string b v)
    args;
  Stdlib.Buffer.add_char b '}'

let add_event b (ev : Sim.Probe.event) =
  let ph =
    match ev.kind with
    | Sim.Probe.Instant -> "i"
    | Sim.Probe.Span_begin -> "B"
    | Sim.Probe.Span_end -> "E"
    | Sim.Probe.Async_begin -> "b"
    | Sim.Probe.Async_end -> "e"
    | Sim.Probe.Counter -> "C"
    | Sim.Probe.Meta_process -> "M"
    | Sim.Probe.Meta_thread -> "M"
  in
  Stdlib.Buffer.add_string b "{\"name\":";
  Json.add_string b ev.name;
  Stdlib.Buffer.add_string b ",\"cat\":";
  Json.add_string b (if ev.cat = "" then "sim" else ev.cat);
  Stdlib.Buffer.add_string b ",\"ph\":\"";
  Stdlib.Buffer.add_string b ph;
  Stdlib.Buffer.add_string b "\",\"ts\":";
  add_ts b ev.ts;
  Stdlib.Buffer.add_string b (Printf.sprintf ",\"pid\":%d,\"tid\":%d" (out_pid ev.pid) ev.tid);
  (match ev.kind with
  | Sim.Probe.Instant -> Stdlib.Buffer.add_string b ",\"s\":\"t\""
  | Sim.Probe.Async_begin | Sim.Probe.Async_end ->
    Stdlib.Buffer.add_string b (Printf.sprintf ",\"id\":\"0x%x\"" ev.id)
  | _ -> ());
  if ev.args <> [] then add_args b ev.args;
  Stdlib.Buffer.add_char b '}'

let add_meta b ~name ~pid ?tid value =
  Stdlib.Buffer.add_string b "{\"name\":\"";
  Stdlib.Buffer.add_string b name;
  Stdlib.Buffer.add_string b (Printf.sprintf "\",\"ph\":\"M\",\"pid\":%d" (out_pid pid));
  (match tid with
  | Some tid -> Stdlib.Buffer.add_string b (Printf.sprintf ",\"tid\":%d" tid)
  | None -> ());
  Stdlib.Buffer.add_string b ",\"args\":{\"name\":";
  Json.add_string b value;
  Stdlib.Buffer.add_string b "}}"

let to_buffer b ?(extra = []) ~processes ~threads events =
  Stdlib.Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Stdlib.Buffer.add_string b ",\n"
  in
  List.iter
    (fun (pid, name) ->
      sep ();
      add_meta b ~name:"process_name" ~pid name)
    processes;
  List.iter
    (fun ((pid, tid), name) ->
      sep ();
      add_meta b ~name:"thread_name" ~pid ~tid name)
    threads;
  List.iter
    (fun ev ->
      sep ();
      add_event b ev)
    events;
  List.iter
    (fun json ->
      sep ();
      Stdlib.Buffer.add_string b json)
    extra;
  Stdlib.Buffer.add_string b "\n]}\n"

let to_string ?extra ~processes ~threads events =
  let b = Stdlib.Buffer.create 65536 in
  to_buffer b ?extra ~processes ~threads events;
  Stdlib.Buffer.contents b

let write_file path ?extra ~processes ~threads events =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?extra ~processes ~threads events))
