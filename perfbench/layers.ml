(* The traced run's instruments, all attached through
   Workload.Experiments.setup (metrics, provenance, on_engine): a
   telemetry registry, the engine's stride-sampled queue self-cost, a
   profiler record that charges the wall time between consecutive events
   to the fiber that scheduled the first of them, and a probe sink that
   keeps only the virtual durations of the provenance spans named in
   [span_names]. The registry's replication histogram is filled only by the
   one-slot propose path, so the pipelined and doorbell paths are timed
   by their committed "batch" spans instead. *)

type t = {
  reg : Telemetry.Registry.t;
  sampler : Telemetry.Sampler.t;
  selfcost : Sim.Engine.selfcost;
  by_name : (string, int ref) Hashtbl.t;  (** Fiber name → wall ns. *)
  fibers : (int, int ref) Hashtbl.t;  (** tid of the current engine → its name's cell. *)
  mutable cur : int ref;
  mutable last : int64;
  open_spans : (int, int * string) Hashtbl.t;  (** Span id → (begin ts, name). *)
  spans : (string, Sim.Stats.Samples.t) Hashtbl.t;  (** Name → virtual ns. *)
  mutable watch : Sim.Probe.event -> unit;  (** Sees every probe event first. *)
}

(* "propose": one Mu propose on the one-slot path, capture → commit.
   "batch": one pipelined or doorbell slot, posted → committed.
   "request": one client request at the leader, submit → response. *)
let span_names = [ "propose"; "batch"; "request" ]

let now_ns () = Monotonic_clock.now ()

let create () =
  let reg = Telemetry.Registry.create () in
  {
    reg;
    sampler = Telemetry.Sampler.create reg ~interval:1_000_000;
    selfcost =
      Sim.Engine.selfcost_create ~clock:(fun () -> Int64.to_float (now_ns ()) *. 1e-9) ();
    by_name = Hashtbl.create 64;
    fibers = Hashtbl.create 64;
    cur = ref 0;
    last = 0L;
    open_spans = Hashtbl.create 1024;
    spans = Hashtbl.create 8;
    watch = ignore;
  }

let watch t f = t.watch <- f

let span_samples t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
    let s = Sim.Stats.Samples.create () in
    Hashtbl.replace t.spans name s;
    s

let on_probe t (ev : Sim.Probe.event) =
  t.watch ev;
  if ev.Sim.Probe.cat = "prov" then
    let arg k = List.assoc_opt k ev.Sim.Probe.args in
    match (ev.Sim.Probe.name, arg "span") with
    | "span_begin", Some id -> (
      match arg "name" with
      | Some n when List.mem n span_names ->
        Hashtbl.replace t.open_spans (int_of_string id) (ev.Sim.Probe.ts, n)
      | _ -> ())
    | "span_end", Some id -> (
      let id = int_of_string id in
      match Hashtbl.find_opt t.open_spans id with
      | Some (t0, n) ->
        Hashtbl.remove t.open_spans id;
        if arg "outcome" <> Some "aborted" then
          Sim.Stats.Samples.add (span_samples t n) (ev.Sim.Probe.ts - t0)
      | None -> ())
    | _ -> ()

(* Host-qualified fiber names ("mu-0/heartbeat") collapse to the part
   after the host. *)
let base_name n =
  match String.rindex_opt n '/' with
  | Some i -> String.sub n (i + 1) (String.length n - i - 1)
  | None -> n

let cell t name =
  match Hashtbl.find_opt t.by_name name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace t.by_name name r;
    r

(* Fiber ids restart with every engine, so each engine gets a fresh
   tid table; wall time accumulates by name across engines. *)
let attach t e =
  Hashtbl.reset t.fibers;
  Hashtbl.reset t.open_spans;
  Sim.Probe.set_sink (Sim.Engine.probe e) (on_probe t);
  Sim.Engine.set_selfcost e t.selfcost;
  t.cur <- cell t "(scheduler)";
  t.last <- now_ns ();
  Sim.Engine.set_profiler e
    {
      Sim.Engine.prof_event = (fun ~now:_ -> ());
      prof_attr =
        (fun ~pid:_ ~tid ~spans:_ ->
          let n = now_ns () in
          t.cur := !(t.cur) + Int64.to_int (Int64.sub n t.last);
          t.last <- n;
          t.cur <-
            (match Hashtbl.find_opt t.fibers tid with
            | Some r -> r
            | None -> cell t "(scheduler)"));
      prof_fiber = (fun ~tid ~pid:_ ~name -> Hashtbl.replace t.fibers tid (cell t (base_name name)));
      prof_span = (fun ~id:_ ~name:_ -> ());
      prof_host = (fun ~pid:_ ~name:_ -> ());
    }

let setup t (base : Workload.Experiments.setup) =
  {
    base with
    Workload.Experiments.metrics = Some t.sampler;
    provenance = true;
    on_engine =
      Some
        (fun e ->
          attach t e;
          Option.iter (fun f -> f e) base.Workload.Experiments.on_engine);
  }

(* Wall ns charged to any fiber: the engines' run time between their
   first and last event. *)
let run_wall_ns t = Hashtbl.fold (fun _ r acc -> acc + !r) t.by_name 0

let fiber_wall_ns t names =
  Hashtbl.fold (fun n r acc -> if List.mem n names then acc + !r else acc) t.by_name 0

let queue_wall_ns t =
  let ops, sampled, wall_s = Sim.Engine.selfcost_queue t.selfcost in
  if sampled = 0 then 0.0 else wall_s *. 1e9 *. float_of_int ops /. float_of_int sampled

let metrics t name =
  List.filter (fun (m : Telemetry.Registry.metric) -> m.name = name) (Telemetry.Registry.metrics t.reg)

let counter t name =
  List.fold_left
    (fun acc (m : Telemetry.Registry.metric) ->
      match m.kind with Telemetry.Registry.Counter c -> acc + Telemetry.Registry.Counter.value c | _ -> acc)
    0 (metrics t name)

(* All label sets of one histogram merged, optionally filtered. *)
let histogram ?(labels = fun _ -> true) t name =
  let out = Telemetry.Hdr.create () in
  List.iter
    (fun (m : Telemetry.Registry.metric) ->
      match m.kind with
      | Telemetry.Registry.Histogram h when labels m.labels -> Telemetry.Hdr.merge ~into:out h
      | _ -> ())
    (metrics t name);
  out

(* Quantile of the durations of the spans with any of [names], ns. *)
let span_quantile t names q =
  let all = Sim.Stats.Samples.create () in
  List.iter
    (fun n -> List.iter (Sim.Stats.Samples.add all) (Sim.Stats.Samples.to_list (span_samples t n)))
    names;
  Option.value (Sim.Stats.Samples.quantile_opt all q) ~default:0.0

let mean h = Option.value (Telemetry.Hdr.mean h) ~default:0.0
