(* Observability self-profiling: what does each instrumentation layer
   cost the simulator?

   The workload is fixed and synthetic — [fibers] fibers each doing
   [sleeps] short virtual sleeps, every op wrapped in the hooks a real
   instrumented path hits (a provenance span scope, a trace counter) —
   and is run once per layer configuration. Wall-clock comes from the
   caller's [clock] (the library stays clock-free so simulation code
   can depend on it); allocation comes from [Gc.minor_words] deltas.

   The numbers are wall-clock measurements and therefore NOT
   deterministic — they go into bench results as volatile fields, never
   into byte-compared artifacts. *)

type layer = Baseline | Trace | Telemetry | Provenance | Monitor

let layer_name = function
  | Baseline -> "baseline"
  | Trace -> "trace"
  | Telemetry -> "telemetry"
  | Provenance -> "provenance"
  | Monitor -> "monitor"

let all_layers = [ Baseline; Trace; Telemetry; Provenance; Monitor ]

type sample = {
  layer : string;
  ops : int;  (* instrumented operations executed *)
  wall_s : float;
  ops_per_s : float;
  minor_words_per_op : float;
}

let gap_ns = 1_000

let run ?(fibers = 32) ?(sleeps = 2_000) ~clock layer =
  let e = Sim.Engine.create ~seed:1L () in
  let tracer = Trace.Tracer.create ~capacity:4096 () in
  (match layer with
  | Baseline -> ()
  | Trace -> Trace.Tracer.attach tracer e
  | Telemetry -> Sim.Engine.set_metrics e (Telemetry.Registry.create ())
  | Provenance ->
    Trace.Tracer.attach tracer e;
    Sim.Engine.set_provenance e true
  | Monitor ->
    let reg = Telemetry.Registry.create () in
    let sampler = Telemetry.Sampler.create reg ~interval:10_000 in
    Sim.Engine.set_metrics e reg;
    Telemetry.Sampler.start_epoch sampler;
    let _online = Online.attach e sampler in
    Sim.Engine.spawn e ~name:"telemetry-sampler" (fun () ->
        let rec loop () =
          Telemetry.Sampler.tick sampler ~now:(Sim.Engine.now e);
          Sim.Engine.sleep e (Telemetry.Sampler.interval sampler);
          loop ()
        in
        loop ()));
  for f = 1 to fibers do
    Sim.Engine.spawn e ~name:(Printf.sprintf "load-%d" f) (fun () ->
        (* hoisted so a disabled-layer iteration allocates nothing here *)
        let body () = Sim.Engine.sleep e gap_ns in
        for i = 1 to sleeps do
          Sim.Engine.span_scope e "op" body;
          Sim.Engine.trace_counter e ~cat:"load" "ops" ~value:i
        done)
  done;
  let horizon = (sleeps * gap_ns) + 1_000_000 in
  let w0 = Gc.minor_words () in
  let c0 = clock () in
  Sim.Engine.run ~until:horizon e;
  let wall_s = clock () -. c0 in
  let words = Gc.minor_words () -. w0 in
  let ops = fibers * sleeps in
  {
    layer = layer_name layer;
    ops;
    wall_s;
    ops_per_s = (if wall_s > 0.0 then float_of_int ops /. wall_s else 0.0);
    minor_words_per_op = words /. float_of_int ops;
  }

let run_all ?fibers ?sleeps ~clock () =
  List.map (fun l -> run ?fibers ?sleeps ~clock l) all_layers

let pp_sample ppf s =
  Fmt.pf ppf "%-11s %9.0f ops/s  %6.1f words/op" s.layer s.ops_per_s
    s.minor_words_per_op

let pp ppf samples = Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_sample) samples

(* --- run-attached sampling ----------------------------------------------

   The synthetic table above answers "what does a layer cost in
   isolation"; [Attached] answers "what did the layers cost in *this*
   run". It interposes on two engine seams — the probe sink (trace +
   provenance events) and the queue selfcost hook — and stride-samples
   wall-clock and minor-word deltas through each. Everything here is
   wall-clock and therefore volatile: report it, never byte-compare it.
   The virtual clock never sees any of it, so attaching cannot change
   the simulation. *)

module Attached = struct
  type acc = {
    mutable a_arm : int;
    mutable a_events : int; (* all events through the seam *)
    mutable a_sampled : int; (* events measured *)
    mutable a_wall : float; (* wall seconds over sampled events *)
    mutable a_words : float; (* minor words over sampled events, bias-corrected *)
  }

  type t = {
    clock : unit -> float;
    stride : int;
    gc_bias : float; (* minor words one empty measurement costs *)
    wall_bias : float; (* wall seconds one empty measurement costs *)
    trace : acc;
    prov : acc;
    queue : Sim.Engine.selfcost; (* shared by every attached engine *)
    mutable run_wall : float;
    mutable run_words : float;
  }

  (* [Gc.minor_words ()] itself allocates (a boxed float), as does the
     clock; calibrate the cost of an empty measurement and subtract it
     from every sample so a zero-allocation, tens-of-ns seam reports ~0
     rather than the measurement's own cost. *)
  let calibrate clock =
    let best_words = ref infinity in
    let best_wall = ref infinity in
    for _ = 1 to 128 do
      let w0 = Gc.minor_words () in
      let c0 = clock () in
      let wall = clock () -. c0 in
      let d = Gc.minor_words () -. w0 in
      if d < !best_words then best_words := d;
      if wall < !best_wall then best_wall := wall
    done;
    (!best_words, !best_wall)

  let fresh_acc stride =
    { a_arm = stride; a_events = 0; a_sampled = 0; a_wall = 0.0; a_words = 0.0 }

  let create ?(stride = 64) ~clock () =
    if stride <= 0 then invalid_arg "Overhead.Attached.create: stride must be positive";
    let gc_bias, wall_bias = calibrate clock in
    {
      clock;
      stride;
      gc_bias;
      wall_bias;
      trace = fresh_acc stride;
      prov = fresh_acc stride;
      queue = Sim.Engine.selfcost_create ~stride ~clock ();
      run_wall = 0.0;
      run_words = 0.0;
    }

  let measure t acc f =
    acc.a_events <- acc.a_events + 1;
    acc.a_arm <- acc.a_arm - 1;
    if acc.a_arm > 0 then f ()
    else begin
      acc.a_arm <- t.stride;
      let w0 = Gc.minor_words () in
      let c0 = t.clock () in
      f ();
      acc.a_wall <- acc.a_wall +. Float.max 0.0 (t.clock () -. c0 -. t.wall_bias);
      acc.a_words <- acc.a_words +. Float.max 0.0 (Gc.minor_words () -. w0 -. t.gc_bias);
      acc.a_sampled <- acc.a_sampled + 1
    end

  let attach t e =
    Sim.Engine.set_selfcost e t.queue;
    (* Trace vs provenance split rides the existing sink: provenance
       events are cat="prov" instants by construction (DESIGN §13). *)
    match Sim.Probe.sink (Sim.Engine.probe e) with
    | None -> ()
    | Some f ->
      Sim.Probe.set_sink (Sim.Engine.probe e) (fun ev ->
          let acc = if ev.Sim.Probe.cat = "prov" then t.prov else t.trace in
          measure t acc (fun () -> f ev))

  let measure_run t f =
    let w0 = Gc.minor_words () in
    let c0 = t.clock () in
    let r = f () in
    t.run_wall <- t.run_wall +. (t.clock () -. c0);
    t.run_words <- t.run_words +. (Gc.minor_words () -. w0);
    r

  type row = {
    r_layer : string;
    r_events : int;
    r_sampled : int;
    r_wall_s : float; (* extrapolated to all events *)
    r_minor_words : float; (* extrapolated to all events *)
  }

  let extrapolate acc =
    if acc.a_sampled = 0 then (0.0, 0.0)
    else begin
      let k = float_of_int acc.a_events /. float_of_int acc.a_sampled in
      (acc.a_wall *. k, acc.a_words *. k)
    end

  let report t =
    let qops, qsampled, qwall = Sim.Engine.selfcost_queue t.queue in
    let qwall_x =
      if qsampled = 0 then 0.0 else qwall *. float_of_int qops /. float_of_int qsampled
    in
    let layer name acc =
      let wall, words = extrapolate acc in
      {
        r_layer = name;
        r_events = acc.a_events;
        r_sampled = acc.a_sampled;
        r_wall_s = wall;
        r_minor_words = words;
      }
    in
    let rows =
      [
        {
          r_layer = "queue_ops";
          r_events = qops;
          r_sampled = qsampled;
          r_wall_s = qwall_x;
          r_minor_words = 0.0 (* queue push/pop are allocation-free *);
        };
        layer "trace" t.trace;
        layer "provenance" t.prov;
      ]
    in
    let acc_wall = List.fold_left (fun a r -> a +. r.r_wall_s) 0.0 rows in
    let acc_words = List.fold_left (fun a r -> a +. r.r_minor_words) 0.0 rows in
    (* Engine dispatch is the remainder of the whole-run measurement:
       everything not attributed to an instrumented seam (event
       dispatch, fiber bodies, protocol code). *)
    let dispatch =
      {
        r_layer = "engine_dispatch";
        r_events = 0;
        r_sampled = 0;
        r_wall_s = Float.max 0.0 (t.run_wall -. acc_wall);
        r_minor_words = Float.max 0.0 (t.run_words -. acc_words);
      }
    in
    let total =
      {
        r_layer = "run_total";
        r_events = 0;
        r_sampled = 0;
        r_wall_s = t.run_wall;
        r_minor_words = t.run_words;
      }
    in
    total :: dispatch :: rows

  let pp_row ppf r =
    if r.r_events > 0 then
      Fmt.pf ppf "%-18s %10.6f s %12.0f words  (%d events, %d sampled)" r.r_layer
        r.r_wall_s r.r_minor_words r.r_events r.r_sampled
    else Fmt.pf ppf "%-18s %10.6f s %12.0f words" r.r_layer r.r_wall_s r.r_minor_words

  let pp ppf rows = Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_row) rows
end
