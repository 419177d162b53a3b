(* kv-failover: the benchmark's own open-loop client on Mu.Smr with the
   replicated KV store (Apps.Kv_store.smr_app), 3 replicas,
   Mu.Config.default plus durable_state. Every [kill_every] it kills the
   serving leader's host and restarts that replica [restart_after]
   later. Config.default keeps max_batch = 1: this workload reproduces
   the paper's Figs. 5-6 latency setup, one slot per request.

   Requests are timed from their due time, so a request due while no
   leader exists is charged the whole outage. Every request carries a
   unique (client, req_id) pair, so the store's dedup turns SMR
   re-delivery into no-ops and the reply history can be checked against
   the pure KV model. *)

let rate_per_ns = 0.2 /. 1000.
let value_bytes = 512
let keys = 10_000
let kill_every = 40_000_000
let restart_after = 20_000_000
let kills = 3
let arrivals_ns = (kills + 1) * kill_every
let drain_ns = 50_000_000
let config = { Mu.Config.default with Mu.Config.durable_state = true }

type input = { due : int array; cmds : Apps.Kv_store.command array }

(* The request schedule, from the workload seed alone. *)
let inputs ~seed =
  let rng = Sim.Rng.create seed in
  let due = ref [] and cmds = ref [] in
  let t = ref (Workload.Generators.poisson_gap rng ~rate:rate_per_ns) in
  let i = ref 0 in
  while !t < arrivals_ns do
    let key = Printf.sprintf "k%05d" (Sim.Rng.int rng keys) in
    let cmd =
      if Sim.Rng.bool rng then begin
        (* Unique values, so a stale read cannot pass for a fresh one. *)
        let tag = Printf.sprintf "%d:" !i in
        Apps.Kv_store.Put { key; value = tag ^ String.make (value_bytes - String.length tag) 'v' }
      end
      else Apps.Kv_store.Get { key }
    in
    due := !t :: !due;
    cmds := cmd :: !cmds;
    incr i;
    t := !t + Workload.Generators.poisson_gap rng ~rate:rate_per_ns
  done;
  { due = Array.of_list (List.rev !due); cmds = Array.of_list (List.rev !cmds) }

type kill = {
  at : int;
  victim : int;
  elections_before : int;
  mutable elected : int option;  (** When a survivor took the leader role. *)
  mutable serving : int option;  (** When it began serving with confirmed followers. *)
}

type result = {
  offered : int;
  answered : int;
  latencies : Sim.Stats.Samples.t;  (** Due → reply, virtual ns. *)
  span_ns : int;  (** Live → last arrival due. *)
  unavail_ns : int list;  (** Per kill: kill → first reply delivered after it. *)
  kills_done : kill list;
  abort : string option;  (** Crash or stall that ended the run early. *)
  contained : string list;
      (** Invariant violations in the state a crash or stall froze
          mid-event; recorded with the abort rather than failed. A run
          that completes fails on any violation. *)
  errors : string list;  (** Failed output checks. *)
  rejoins : Mu.Smr.rejoin list;
  apply_ns : Sim.Stats.Samples.t;  (** Wall ns per app apply (traced runs). *)
  setup_s : float option;  (** Create + start + wait_live, wall; [None] if never live. *)
  wall_s : float;  (** Live → end of run, wall. *)
  words : float;  (** Minor words allocated from live to the end of the run. *)
  heap_words : int;  (** Peak major heap of the run ({!Watchdog.outcome}). *)
}

(* Wrap each replica's app so every apply is timed on the wall clock. *)
let timed_app apply_ns () =
  let app = Apps.Kv_store.smr_app () in
  {
    app with
    Mu.Smr.apply =
      (fun b ->
        let t0 = Monotonic_clock.now () in
        let r = app.Mu.Smr.apply b in
        Sim.Stats.Samples.add apply_ns (Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0));
        r);
  }

(* With [layers] (a traced run), applies are wall-timed, every probe
   event after a kill checks the replicas' roles until a survivor
   serves, and each kill snapshots the registry's election counter. *)
let run ?layers setup input =
  let traced = layers <> None in
  let apply_ns = Sim.Stats.Samples.create () in
  let elections () =
    match layers with Some l -> Layers.counter l "mu_elections_total" | None -> 0
  in
  let n = Array.length input.due in
  let replied = Array.make n max_int in
  let replies = Array.make n None in
  let answered = ref 0 in
  let smr = ref None in
  let t0 = ref 0 and setup_s = ref None and live_wall = ref 0.0 and live_words = ref 0.0 in
  let kills_done = ref [] in
  let make_app = if traced then timed_app apply_ns else Apps.Kv_store.smr_app in
  let drive e =
    let w0 = Unix.gettimeofday () in
    let c = Mu.Smr.create e setup.Workload.Experiments.cal config ~make_app:(fun _ -> make_app ()) in
    smr := Some c;
    Mu.Smr.start c;
    Mu.Smr.wait_live c;
    live_wall := Unix.gettimeofday ();
    live_words := Gc.minor_words ();
    setup_s := Some (!live_wall -. w0);
    t0 := Sim.Engine.now e;
    Sim.Engine.spawn e ~name:"kv-chaos" (fun () ->
        for k = 1 to kills do
          Sim.Engine.sleep e (!t0 + (k * kill_every) - Sim.Engine.now e);
          match Mu.Smr.serving_leader c with
          | Some r ->
            let id = r.Mu.Replica.id in
            kills_done :=
              {
                at = Sim.Engine.now e;
                victim = id;
                elections_before = elections ();
                elected = None;
                serving = None;
              }
              :: !kills_done;
            Sim.Host.kill_host r.Mu.Replica.host;
            Sim.Engine.schedule_after e restart_after (fun () ->
                Mu.Smr.restart_replica c ~id)
          | None -> ()
        done);
    (* A survivor takes the leader role just before it emits its
       "leader" trace instant, and starts serving just before its
       "perm_acquire" span ends, so checking on probe events finds both
       instants without adding events to the simulation. *)
    Option.iter
      (fun l ->
        Layers.watch l (fun (ev : Sim.Probe.event) ->
            match !kills_done with
            | ({ serving = None; _ } as k) :: _ ->
              let survivor (r : Mu.Replica.t) = r.Mu.Replica.id <> k.victim in
              if
                k.elected = None
                && Array.exists
                     (fun r -> survivor r && Mu.Replica.is_leader r)
                     (Mu.Smr.replicas c)
              then k.elected <- Some ev.Sim.Probe.ts;
              (match Mu.Smr.serving_leader c with
              | Some r when survivor r && not r.Mu.Replica.need_new_followers ->
                k.serving <- Some ev.Sim.Probe.ts
              | Some _ | None -> ())
            | _ -> ()))
      layers;
    Array.iteri
      (fun i due ->
        let wait = !t0 + due - Sim.Engine.now e in
        if wait > 0 then Sim.Engine.sleep e wait;
        let payload =
          Apps.Kv_store.encode_command ~client:(i + 1) ~req_id:(i + 1) input.cmds.(i)
        in
        let reply = Mu.Smr.submit_async c payload in
        Sim.Engine.spawn e ~name:"kv-req" (fun () ->
            let r = Sim.Engine.Ivar.read reply in
            if not (Mu.Smr.is_retryable r) then begin
              replied.(i) <- Sim.Engine.now e;
              replies.(i) <- Apps.Kv_store.decode_reply r;
              incr answered
            end))
      input.due;
    let deadline = Sim.Engine.now e + drain_ns in
    while !answered < n && Sim.Engine.now e < deadline do
      Sim.Engine.sleep e 100_000
    done;
    Mu.Smr.stop c
  in
  (* Start from a collected heap, so this run does not pay for the
     garbage of the one before. *)
  Gc.full_major ();
  let o =
    Watchdog.run_sim setup ~until:(arrivals_ns + drain_ns + 200_000_000) drive
  in
  let cut = match o.Watchdog.result with Ok () -> None | Error c -> Some c in
  (* A stalled run ends when its clock last moved. *)
  let wall_end, words_end =
    match cut with
    | Some (why, _) when String.starts_with ~prefix:"stall" why -> o.Watchdog.progress
    | _ -> (Unix.gettimeofday (), Gc.minor_words ())
  in
  let wall_s = if !setup_s = None then 0.0 else wall_end -. !live_wall in
  let abort =
    Option.map
      (fun (why, fiber) ->
        match fiber with Some f -> Printf.sprintf "%s in fiber %s" why f | None -> why)
      cut
  in
  let end_ns = match o.Watchdog.engine with Some e -> Sim.Engine.now e | None -> 0 in
  let lat = Sim.Stats.Samples.create () in
  Array.iteri (fun i r -> if r <> max_int then Sim.Stats.Samples.add lat (r - (!t0 + input.due.(i)))) replied;
  let kills_done = List.rev !kills_done in
  let unavail_ns =
    List.map
      (fun k ->
        Array.fold_left (fun acc r -> if r > k.at && r < acc then r else acc) end_ns replied
        - k.at)
      kills_done
  in
  let errors = ref [] and contained = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if !answered < 1000 then fail "kv-failover: p99 needs >= 1000 replies, got %d" !answered;
  (match !smr with
  | None -> fail "kv-failover: cluster never came up"
  | Some c ->
    let record =
      List.init n (fun i ->
          {
            Workload.Chaos.r_proc = i + 1;
            r_req = i + 1;
            r_invoked = !t0 + input.due.(i);
            r_responded = replied.(i);
            r_cmd = input.cmds.(i);
            r_reply = replies.(i);
          })
    in
    (match Modelcheck.Conformance.check record with
    | None -> ()
    | Some w -> fail "kv-failover: replies not conformant: %s" (Fmt.str "%a" Modelcheck.Conformance.pp_witness w));
    List.iter
      (fun (v : Mu.Invariants.violation) ->
        let msg = Fmt.str "%a" Mu.Invariants.pp_violation v in
        if abort <> None then
          contained := Printf.sprintf "invariant after the cut: %s" msg :: !contained
        else fail "kv-failover: invariant: %s" msg)
      (Mu.Invariants.check_all (Mu.Smr.replicas c)));
  {
    offered = n;
    answered = !answered;
    latencies = lat;
    span_ns = (if n = 0 then 1 else input.due.(n - 1));
    unavail_ns;
    kills_done;
    abort;
    contained = List.rev !contained;
    errors = List.rev !errors;
    rejoins = (match !smr with Some c -> Mu.Smr.rejoins c | None -> []);
    apply_ns;
    setup_s = !setup_s;
    wall_s;
    words = words_end -. !live_words;
    heap_words = o.Watchdog.peak_heap_words;
  }
