(* Containment for one simulation run. A defect can keep the simulator
   inside a single event forever (a replayer loop that never yields), so
   no virtual-time bound can end it. A CPU-time interval timer samples
   the engine's clock; if virtual time has not moved for [stall_s] CPU
   seconds, or the run has used more than [budget_s] wall seconds, the
   signal handler raises [Abort] out of whatever the simulator is doing.
   The engine wraps it in [Fiber_crash] when it fires inside a fiber. *)

exception Abort of string

let tick_s = 0.1
let stall_s = 0.5
let budget_s = 30.0

(* The reason a run was cut short, and the fiber it happened in. *)
let rec describe = function
  | Abort why -> (why, None)
  | Sim.Engine.Fiber_crash (fiber, exn) -> (
    match describe exn with
    | why, None -> (why, Some fiber)
    | r -> r)
  | exn -> (Printexc.to_string exn, None)

type 'a outcome = {
  result : ('a, string * string option) result;
      (** [Error (reason, fiber)] when the run was cut short. *)
  engine : Sim.Engine.t option;
  progress : float * float;
      (** Wall time and minor words allocated at the last tick that saw
          the virtual clock move. *)
  peak_heap_words : int;
      (** Largest major heap seen at the end of a major GC cycle during
          the run, or when it returned. *)
}

(* [Workload.Experiments.run_sim] under the timer. *)
let run_sim setup ~until f =
  let engine = ref None in
  let setup =
    {
      setup with
      Workload.Experiments.on_engine =
        Some
          (fun e ->
            engine := Some e;
            Option.iter (fun g -> g e) setup.Workload.Experiments.on_engine);
    }
  in
  let t0 = Unix.gettimeofday () in
  let progress = ref (t0, Gc.minor_words ()) in
  let last = ref None and still = ref 0.0 in
  let handler _ =
    let vt = Option.map Sim.Engine.now !engine in
    if vt <> None && vt = !last then still := !still +. tick_s
    else begin
      last := vt;
      still := 0.0;
      progress := (Unix.gettimeofday (), Gc.minor_words ())
    end;
    if !still >= stall_s then
      raise
        (Abort (Printf.sprintf "stall: virtual clock stuck at %d ns" (Option.value vt ~default:0)))
    else if Unix.gettimeofday () -. t0 > budget_s then
      raise (Abort (Printf.sprintf "overrun: wall budget of %.0f s exhausted" budget_s))
  in
  let timer = { Unix.it_interval = tick_s; it_value = tick_s } in
  let off = { Unix.it_interval = 0.0; it_value = 0.0 } in
  let old = Sys.signal Sys.sigvtalrm (Sys.Signal_handle handler) in
  let peak = ref 0 in
  let sample_heap () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words in
  let alarm = Gc.create_alarm sample_heap in
  ignore (Unix.setitimer Unix.ITIMER_VIRTUAL timer);
  let result =
    match Workload.Experiments.run_sim setup ~until f with
    | r -> Ok r
    | exception exn -> Error (describe exn)
  in
  ignore (Unix.setitimer Unix.ITIMER_VIRTUAL off);
  Sys.set_signal Sys.sigvtalrm old;
  sample_heap ();
  Gc.delete_alarm alarm;
  { result; engine = !engine; progress = !progress; peak_heap_words = !peak }
