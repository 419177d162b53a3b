(* Online monitor orchestrator.

   Attaches to an engine + sampler pair: it subscribes to the sampler
   (so it sees exactly the snapshots the sampler stores, at the
   sampler's virtual-time cadence, one registry scan per tick) and
   closes an SLO window on the first tick at or past each window
   boundary. At a close it steps every rule; state transitions land in
   the Monitor.Log, on the trace ring as cat="alert" instants (only
   when tracing is on), and in the caller's notify callback (the live
   dashboard).

   Determinism: the monitor consumes no PRNG and adds no engine events
   of its own (it rides the sampler fiber), so a monitored run's
   protocol schedule equals the metrics-only run's, and a monitor-off
   run is byte-identical to seed. *)

type t = {
  engine : Sim.Engine.t;
  slo : Slo.t;
  rules : Rules.t list;
  log : Log.t;
  window_ns : int;
  epoch : int;  (* sampler epoch this monitor watches; others are ignored *)
  mutable win_start : int;
  mutable windows : int;
  mutable notify : (Log.entry -> unit) option;
  mutable on_window : (Slo.window -> Rules.t list -> unit) option;
}

let attach ?window_ns ?rules:specs engine sampler =
  let window_ns =
    match window_ns with Some w -> w | None -> Telemetry.Sampler.interval sampler
  in
  if window_ns <= 0 then invalid_arg "Online.attach: window_ns must be positive";
  let specs = match specs with Some s -> s | None -> Rules.defaults () in
  let t =
    {
      engine;
      slo = Slo.create ();
      rules = List.map Rules.make specs;
      log = Log.create ();
      window_ns;
      epoch = Telemetry.Sampler.current_epoch sampler;
      win_start = 0;
      windows = 0;
      notify = None;
      on_window = None;
    }
  in
  let close_window ~now ~epoch samples =
    let w = Slo.advance t.slo ~epoch ~t0:t.win_start ~t1:now samples in
    t.win_start <- now;
    t.windows <- t.windows + 1;
    List.iter
      (fun r ->
        match Rules.step r w with
        | None -> ()
        | Some (edge, detail) ->
          let entry =
            Log.add t.log ~at:now ~epoch ~window:(Slo.index w)
              ~rule:(Rules.name r) ~edge ~detail
          in
          if Sim.Engine.traced t.engine then
            Sim.Engine.trace_instant t.engine ~cat:"alert"
              ~args:
                [
                  ("rule", Rules.name r);
                  ("edge", (match edge with `Fire -> "fire" | `Clear -> "clear"));
                  ("detail", detail);
                ]
              "alert";
          (match t.notify with Some f -> f entry | None -> ()))
      t.rules;
    match t.on_window with Some f -> f w t.rules | None -> ()
  in
  Telemetry.Sampler.subscribe sampler (fun ~now ~epoch samples ->
      (* A shared sampler keeps ticking for engines built after this
         one; windows of a foreign epoch belong to a different run. *)
      if epoch = t.epoch && now - t.win_start >= t.window_ns then
        close_window ~now ~epoch samples);
  t

let log t = t.log
let rules t = t.rules
let windows t = t.windows
let window_ns t = t.window_ns
let on_alert t f = t.notify <- Some f
let on_window t f = t.on_window <- Some f

let firing t = Log.firing t.log
