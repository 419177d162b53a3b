(* The repository benchmark: three workloads, end-to-end metrics from an
   untraced pass, per-layer metrics from a traced pass. README.md says
   what each workload and metric is for.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run repeats its workload until [--seconds] of wall time are spent.
   Iteration i uses sub-seed i mod [rounds], so the first [rounds]
   iterations fix every virtual-time metric for the seed, and every
   later iteration must reproduce its earlier twin exactly. The last
   stdout line is the JSON result; the lines before it are the
   human-readable table. *)

let cal = Sim.Calibration.default
let light_rate_per_us = 0.02
let light_ns = 100_000_000
let ramp_step_ns = 2_000_000
let ramp_steps = 11
let ramp_top = 51.0

(* Geometric ladder 1 → [ramp_top] req/µs, ratio 51^(1/10) ≈ 1.48. *)
let ladder =
  List.init ramp_steps (fun k -> ramp_top ** (float_of_int k /. float_of_int (ramp_steps - 1)))

type workload = Light | Ramp | Kv

let workloads = [ ("serve-light", Light); ("serve-ramp", Ramp); ("kv-failover", Kv) ]

(* Independent sub-seeds per run. The virtual-time metrics are medians
   over them; serve-light's goodput is a Poisson count of ~2,000 and
   kv-failover ends in one of a few defect outcomes, so both need more
   of them for a stable median. *)
let rounds = function Light -> 9 | Ramp -> 5 | Kv -> 9

(* One iteration's outcome. [virt] holds only virtual-time quantities,
   so it is a pure function of the sub-seed. *)
type iter = {
  virt : (string * float) list;
  commits : int;
  attempted : int;
  failed : int;
  setups : float list;  (** Wall seconds of each cluster set-up. *)
  wall_s : float;  (** Excluding cluster set-up. *)
  run_wall_s : float;  (** The simulation, cluster set-up included. *)
  words : float;  (** Minor words allocated from live to the end. *)
  heap_words : int;  (** Peak major heap of the iteration's simulations. *)
  errors : string list;
  notes : string list;  (** Crashes or stalls, with their reason. *)
  rows : string list;  (** Per-step detail for the table. *)
  layer : (string * float) list;  (** Traced iterations only. *)
}

let us ns = float_of_int ns /. 1000.

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quantile samples q = Option.value (Sim.Stats.Samples.quantile_opt samples q) ~default:0.0

let setup_for layers seed =
  let base = { Workload.Experiments.default_setup with seed; cal } in
  match layers with Some l -> Layers.setup l base | None -> base

(* ---- per-layer numbers common to every workload ------------------------ *)

let mu_fibers = [ "leader-service"; "heartbeat"; "role"; "replayer"; "recycler"; "perm-mgmt" ]

(* Fibers that generate requests and wait for their replies: the
   generator ("experiment"), the tier's or kv-failover's per-request
   fibers, and Mu.Smr's client-side retransmission. *)
let client_fibers = [ "experiment"; "serving-req"; "kv-req"; "client-retry" ]

let layer_metrics (l : Layers.t) ~commits ~run_wall_s ~words =
  let per_commit x = x /. float_of_int (max 1 commits) in
  let events = float_of_int (Layers.counter l "sim_events_total") in
  let run_ns = float_of_int (max 1 (Layers.run_wall_ns l)) in
  let share names = float_of_int (Layers.fiber_wall_ns l names) /. run_ns in
  let perm = Layers.histogram l "rdma_perm_switch_ns" in
  let fast =
    Layers.histogram l "rdma_perm_switch_ns" ~labels:(fun ls ->
        List.assoc_opt "path" ls = Some "flags")
  in
  let span_p50 names = Layers.span_quantile l names 0.5 /. 1000. in
  let repl = span_p50 [ "propose"; "batch" ] and request = span_p50 [ "request" ] in
  let p50_us h = float_of_int (Option.value (Telemetry.Hdr.quantile h 0.5) ~default:0) /. 1000. in
  let apply = p50_us (Layers.histogram l "mu_commit_apply_ns") in
  [
    ("sim.events_per_commit", per_commit events);
    ("sim.wall_ns_per_event", run_wall_s *. 1e9 /. Float.max 1.0 events);
    ("sim.fibers_per_commit", per_commit (float_of_int (Layers.counter l "sim_fibers_spawned_total")));
    ("sim.queue_wall_share", Layers.queue_wall_ns l /. run_ns);
    ("sim.minor_words_per_commit", per_commit words);
    ("rdma.wr_posted_per_commit", per_commit (float_of_int (Layers.counter l "rdma_wr_posted_total")));
    ("rdma.perm_switch_us_p50", p50_us perm);
    ( "rdma.perm_fast_ratio",
      float_of_int (Telemetry.Hdr.count fast) /. float_of_int (max 1 (Telemetry.Hdr.count perm)) );
    ("mu.replication_us_p50", repl);
    ("mu.commit_apply_us_p50", apply);
    ("mu.leader_wait_us_p50", request -. repl -. apply);
    ("mu.request_us_p50", request);
    ("mu.batch_occupancy_mean", Layers.mean (Layers.histogram l "mu_batch_occupancy"));
  ]
  @ List.map (fun f -> ("mu.wall_share." ^ f, share [ f ])) mu_fibers
  @ [ ("client.wall_share", share client_fibers) ]

(* ---- workloads ---------------------------------------------------------- *)

let step_row (s : Tier_load.step) =
  let r = s.Tier_load.report in
  Printf.sprintf
    "  %7.3f req/us  offered %6d  committed %6d  shed %5d  unanswered %3d  p50 %6.2f us  p99 %6.2f us"
    s.Tier_load.rate_per_us s.Tier_load.issued r.Serving.Tier.completed r.Serving.Tier.shed
    s.Tier_load.unanswered (us r.Serving.Tier.p50_ns) (us r.Serving.Tier.p99_ns)

let step_failed (s : Tier_load.step) = s.Tier_load.report.Serving.Tier.shed + s.Tier_load.unanswered

let tier_virt (s : Tier_load.step) =
  let r = s.Tier_load.report in
  [
    ("commit_p50_us", us r.Serving.Tier.p50_ns);
    ("commit_p99_us", us r.Serving.Tier.p99_ns);
    ("commit_samples", float_of_int r.Serving.Tier.completed);
    ("goodput_per_us", r.Serving.Tier.committed_per_us);
    ("failed_ratio", float_of_int (step_failed s) /. float_of_int (max 1 s.Tier_load.issued));
  ]

let tier_iter steps ~virt ~layer =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 steps in
  let fsum f = List.fold_left (fun acc s -> acc +. f s) 0.0 steps in
  let run_wall_s = fsum (fun s -> s.Tier_load.wall_s) in
  {
    virt;
    commits = sum (fun s -> s.Tier_load.report.Serving.Tier.completed);
    attempted = sum (fun s -> s.Tier_load.issued);
    failed = sum step_failed;
    setups = List.map (fun s -> s.Tier_load.setup_s) steps;
    wall_s = fsum (fun s -> s.Tier_load.live_wall_s);
    run_wall_s;
    words = fsum (fun s -> s.Tier_load.words);
    heap_words = List.fold_left (fun acc s -> max acc s.Tier_load.heap_words) 0 steps;
    errors = List.concat_map (fun s -> s.Tier_load.errors) steps;
    notes = [];
    rows = List.map step_row steps;
    layer;
  }

let run_light ~layers ~t_live ~seed =
  let s =
    Tier_load.run_step ~min_samples:1000 (setup_for layers seed) ~t_live ~shards:1
      ~rate_per_us:light_rate_per_us ~duration:light_ns ~pop_seed:(Int64.add seed 1L)
  in
  tier_iter [ s ] ~virt:(tier_virt s) ~layer:[]

let run_ramp ~layers ~t_live ~seed =
  let setup = setup_for layers seed in
  let steps =
    List.mapi
      (fun k rate_per_us ->
        Tier_load.run_step setup ~t_live ~shards:4 ~rate_per_us ~duration:ramp_step_ns
          ~min_samples:(if k = ramp_steps - 1 then 1000 else 0)
          ~pop_seed:(Int64.add seed (Int64.of_int (k + 1))))
      ladder
  in
  let top = List.nth steps (ramp_steps - 1) in
  tier_iter steps
    ~virt:(tier_virt top @ [ ("slo_rate_per_us", Tier_load.slo_rate steps) ])
    ~layer:
      (List.map
         (fun s ->
           ( Printf.sprintf "serving.shed_ratio@%.2f" s.Tier_load.rate_per_us,
             float_of_int s.Tier_load.report.Serving.Tier.shed
             /. float_of_int (max 1 s.Tier_load.issued) ))
         steps)

let run_kv ~layers ~t_live:_ ~seed =
  let input = Kv_failover.inputs ~seed:(Int64.add seed 1L) in
  let r = Kv_failover.run ?layers (setup_for layers seed) input in
  let failed = r.Kv_failover.offered - r.Kv_failover.answered in
  let kills = r.Kv_failover.kills_done in
  let per_kill f = median (List.filter_map f kills) in
  let rejoins = r.Kv_failover.rejoins in
  {
    virt =
      [
        ("commit_p50_us", quantile r.Kv_failover.latencies 0.5 /. 1000.);
        ("commit_p99_us", quantile r.Kv_failover.latencies 0.99 /. 1000.);
        ("commit_samples", float_of_int r.Kv_failover.answered);
        ("goodput_per_us", float_of_int r.Kv_failover.answered /. us r.Kv_failover.span_ns);
        ("failed_ratio", float_of_int failed /. float_of_int (max 1 r.Kv_failover.offered));
        ("unavail_p50_us", median (List.map us r.Kv_failover.unavail_ns));
        ("kills", float_of_int (List.length kills));
      ];
    commits = r.Kv_failover.answered;
    attempted = r.Kv_failover.offered;
    failed;
    setups = Option.to_list r.Kv_failover.setup_s;
    wall_s = r.Kv_failover.wall_s;
    run_wall_s = r.Kv_failover.wall_s +. Option.value r.Kv_failover.setup_s ~default:0.0;
    words = r.Kv_failover.words;
    heap_words = r.Kv_failover.heap_words;
    errors = r.Kv_failover.errors;
    notes = Option.to_list r.Kv_failover.abort @ r.Kv_failover.contained;
    rows =
      [
        Printf.sprintf "  kills %d  answered %d/%d  unavail %s us  end: %s" (List.length kills)
          r.Kv_failover.answered r.Kv_failover.offered
          (String.concat "," (List.map (fun u -> Printf.sprintf "%.0f" (us u)) r.Kv_failover.unavail_ns))
          (Option.value r.Kv_failover.abort ~default:"completed");
      ];
    layer =
      (match (layers, kills) with
      | None, _ | _, [] -> []
      | Some l, first :: _ ->
        [
          ("apps.apply_ns_p50", quantile r.Kv_failover.apply_ns 0.5);
          ( "mu.detect_us_p50",
            per_kill (fun k -> Option.map (fun t -> us (t - k.Kv_failover.at)) k.Kv_failover.elected)
          );
          ( "mu.switch_us_p50",
            per_kill (fun k ->
                match (k.Kv_failover.elected, k.Kv_failover.serving) with
                | Some a, Some b -> Some (us (b - a))
                | _ -> None) );
          ( "mu.elections_per_kill",
            float_of_int (Layers.counter l "mu_elections_total" - first.Kv_failover.elections_before)
            /. float_of_int (List.length kills) );
          ( "recovery.rejoin_us_p50",
            median
              (List.map (fun (j : Mu.Smr.rejoin) -> us (j.Mu.Smr.parity_at - j.Mu.Smr.restarted_at)) rejoins)
          );
          ( "recovery.entries_per_rejoin",
            median (List.map (fun (j : Mu.Smr.rejoin) -> float_of_int j.Mu.Smr.entries_pulled) rejoins) );
        ]);
  }

(* An iteration that never produced a result. *)
let cut_short =
  {
    virt = [];
    commits = 0;
    attempted = 0;
    failed = 0;
    setups = [];
    wall_s = 0.0;
    run_wall_s = 0.0;
    words = 0.0;
    heap_words = 0;
    errors = [];
    notes = [];
    rows = [];
    layer = [];
  }

let run_iter = function Light -> run_light | Ramp -> run_ramp | Kv -> run_kv

(* A traced iteration: the sub-seed untraced, then traced. Their
   virtual-time results must agree exactly. *)
let traced_iter w ~t_live ~seed =
  let plain = run_iter w ~layers:None ~t_live ~seed in
  let l = Layers.create () in
  let traced = run_iter w ~layers:(Some l) ~t_live ~seed in
  let errors =
    if traced.virt <> plain.virt || traced.commits <> plain.commits then
      [ "traced run's virtual-time metrics differ from the untraced run's" ]
    else []
  in
  let layer =
    layer_metrics l ~commits:plain.commits ~run_wall_s:plain.run_wall_s ~words:plain.words
    @ [ ("trace_overhead_ratio", traced.run_wall_s /. plain.run_wall_s) ]
    @ traced.layer
  in
  { plain with errors = plain.errors @ traced.errors @ errors; layer }

(* ---- output -------------------------------------------------------------- *)

(* The JSON metrics, with their units; BENCHMARK.json lists the same.
   The wall cost per commit is reported with the per-layer metrics, not
   gated: this host's speed drifts by a quarter for stretches longer
   than a run, more than the largest bound a gated metric may have. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("commit_p50_us", "us");
    ("commit_p99_us", "us");
    ("goodput_per_us", "1/us");
    ("peak_heap_mb", "MB");
  ]

(* Per-layer metrics that every workload measures. The rest of the
   table (kv-only failover layers, per-step shed ratios, the apply
   histogram that stays at zero virtual time) is printed, not gated. *)
let per_layer =
  [
    ("wall_us_per_commit", "us");
    ("sim.events_per_commit", "count");
    ("sim.wall_ns_per_event", "ns");
    ("sim.fibers_per_commit", "count");
    ("sim.queue_wall_share", "ratio");
    ("sim.minor_words_per_commit", "words");
    ("rdma.wr_posted_per_commit", "count");
    ("rdma.perm_switch_us_p50", "us");
    ("rdma.perm_fast_ratio", "ratio");
    ("mu.replication_us_p50", "us");
    ("mu.leader_wait_us_p50", "us");
    ("mu.request_us_p50", "us");
    ("mu.batch_occupancy_mean", "count");
  ]
  @ List.map (fun f -> ("mu.wall_share." ^ f, "ratio")) mu_fibers
  @ [ ("client.wall_share", "ratio"); ("trace_overhead_ratio", "ratio") ]

let json_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_integer v then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (num v) u)
          metrics))

let run ~name ~w ~seed ~seconds ~trace =
  let t_start = Unix.gettimeofday () in
  let k = rounds w in
  let subseeds =
    let rng = Sim.Rng.create (Int64.of_int seed) in
    Array.init k (fun _ -> Int64.logand (Sim.Rng.int64 rng) 0x3fff_ffff_ffffL)
  in
  let lives = Hashtbl.create k in
  Array.iter
    (fun seed ->
      let live shards = Tier_load.live_instant (setup_for None seed) ~shards in
      Hashtbl.replace lives seed (match w with Light -> live 1 | Ramp -> live 4 | Kv -> 0))
    subseeds;
  let t_measure = Unix.gettimeofday () in
  let iters = ref [] and i = ref 0 in
  while !i < k || Unix.gettimeofday () -. t_measure < float_of_int seconds do
    let seed = subseeds.(!i mod k) in
    let t_live = Hashtbl.find lives seed in
    let it =
      match
        if trace then traced_iter w ~t_live ~seed else run_iter w ~layers:None ~t_live ~seed
      with
      | it -> it
      | exception Failure why -> { cut_short with errors = [ why ] }
    in
    let it =
      match if !i < k then None else List.nth_opt (List.rev !iters) (!i - k) with
      | Some twin when twin.virt <> it.virt || twin.attempted <> it.attempted || twin.failed <> it.failed
        ->
        { it with errors = it.errors @ [ "same sub-seed gave different virtual-time metrics" ] }
      | _ -> it
    in
    iters := it :: !iters;
    incr i
  done;
  let all = List.rev !iters in
  let first = List.filteri (fun j _ -> j < k) all in
  let med f = median (List.filter_map f all) in
  let virt_med key = median (List.filter_map (fun it -> List.assoc_opt key it.virt) first) in
  let layer_med key = med (fun it -> List.assoc_opt key it.layer) in
  let errors = List.concat_map (fun it -> it.errors) all in
  let notes = List.sort_uniq compare (List.concat_map (fun it -> it.notes) all) in
  let attempted = List.fold_left (fun a it -> a + it.attempted) 0 first in
  let failed = List.fold_left (fun a it -> a + it.failed) 0 first in
  let setup_s = median (List.concat_map (fun it -> it.setups) all) in
  let wall_per_commit = med (fun it -> Some (it.wall_s *. 1e6 /. float_of_int (max 1 it.commits))) in
  (* Each iteration's own heap high-water mark, median over the first
     pass, so it does not depend on how many iterations the run had
     time for. *)
  let heap_mb =
    median
      (List.map (fun it -> float_of_int (it.heap_words * (Sys.word_size / 8)) /. 1048576.) first)
  in
  Printf.printf "workload %s  seed %d  sub-seeds %d  iterations %d  trace %d\n" name seed k
    (List.length all) (Bool.to_int trace);
  Printf.printf "fabric one-way delay: %s, mean %.0f ns (Sim.Calibration.default)\n"
    (Fmt.str "%a" Sim.Distribution.pp cal.Sim.Calibration.wire)
    (Sim.Distribution.mean cal.Sim.Calibration.wire);
  List.iteri
    (fun j it ->
      Printf.printf "sub-seed %d:\n" j;
      List.iter print_endline it.rows)
    first;
  Printf.printf "virtual time (median over %d sub-seeds):\n" k;
  List.iter
    (fun (key, _) -> Printf.printf "  %-36s %14.4f\n" key (virt_med key))
    (match List.find_opt (fun it -> it.virt <> []) first with Some it -> it.virt | None -> []);
  Printf.printf "wall clock (median over %d iterations):\n" (List.length all);
  Printf.printf "  %-36s %14.6f s\n" "setup_s" setup_s;
  Printf.printf "  %-36s %14.4f us\n" "wall_us_per_commit" wall_per_commit;
  Printf.printf "  %-36s %14.2f MB\n" "peak_heap_mb" heap_mb;
  if trace then begin
    Printf.printf "per layer (traced, median over %d iterations):\n" (List.length all);
    List.iter
      (fun (key, _) -> Printf.printf "  %-36s %14.4f\n" key (layer_med key))
      (match List.find_opt (fun it -> it.layer <> []) all with Some it -> it.layer | None -> [])
  end;
  List.iter (fun n -> Printf.printf "contained: %s\n" n) notes;
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  Printf.printf "elapsed %.1f s\n" (Unix.gettimeofday () -. t_start);
  let metrics =
    if trace then
      List.map
        (fun (key, u) ->
          (key, u, if key = "wall_us_per_commit" then wall_per_commit else layer_med key))
        per_layer
    else
      List.map
        (fun (key, u) ->
          match key with
          | "setup_s" -> (key, u, setup_s)
          | "peak_heap_mb" -> (key, u, heap_mb)
          | _ -> (key, u, virt_med key))
        end_to_end
  in
  print_endline (json_result ~correct:(errors = []) ~attempted ~failed metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " serve-light | serve-ramp | kv-failover");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " wall seconds to measure");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some w -> run ~name:!workload ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
