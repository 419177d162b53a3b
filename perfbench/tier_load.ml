(* serve-light and serve-ramp: open-loop Poisson load with Zipf keys
   through Serving.Tier.run, config Serving.Surface.config ~batch:8
   ~doorbell:4. Each call builds a fresh cluster. The tier times each
   request from the instant its arrival is due, so its p50/p99 are the
   due-time latencies this benchmark reports. *)

let config = Serving.Surface.config ~batch:8 ~doorbell:4
let think_ns = 10_000_000

(* Modeled clients for an aggregate rate: the population offers
   clients / think_ns arrivals per ns. *)
let clients_for ~rate_per_us = max 1 (int_of_float (Float.round (rate_per_us *. 10_000.)))

type step = {
  rate_per_us : float;  (** Offered rate of the population. *)
  report : Serving.Tier.report;
  issued : int;  (** Arrivals due inside the window (replayed from the seed). *)
  unanswered : int;  (** Admitted but never answered within the drain. *)
  errors : string list;
  wall_s : float;  (** Whole Tier.run, set-up included. *)
  setup_s : float;  (** Engine and cluster create + start + wait_live. *)
  live_wall_s : float;  (** From the cluster going live to the end of Tier.run. *)
  words : float;  (** Minor words allocated from live to the end. *)
  heap_words : int;  (** Peak major heap of the run ({!Watchdog.outcome}). *)
}

(* Re-draw the population's arrivals from the same seed, with the same
   clock steps as the tier's generator, and route them: per-shard
   counts of requests due inside [duration]. Population draws are
   shift-invariant, so starting the replay at 0 matches a run that
   started at the cluster's live time. *)
let replay ~shards ~clients ~duration ~pop_seed =
  let pop = Serving.Population.create ~clients ~think_ns (Sim.Rng.create pop_seed) in
  let router = Serving.Router.create ~shards in
  let per_shard = Array.make shards 0 in
  let rec go now =
    let a = Serving.Population.next pop ~now in
    let now = now + a.Serving.Population.gap_ns in
    if now < duration then begin
      let s = Serving.Router.route router a.Serving.Population.key in
      per_shard.(s) <- per_shard.(s) + 1;
      go now
    end
  in
  go 0;
  per_shard

(* The tier's books must balance against the replayed arrivals: per
   shard, admitted = answered + shed after retries + still open, and
   refused at admission = due - admitted. *)
let balance ~shards ~clients ~duration ~pop_seed (r : Serving.Tier.report) =
  let due = replay ~shards ~clients ~duration ~pop_seed in
  let errors = ref [] and unanswered = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun (s : Serving.Tier.shard_report) ->
      let refused = due.(s.shard) - s.submitted in
      let exhausted = s.shed - refused in
      let still_open = s.submitted - s.committed - exhausted in
      if refused < 0 || exhausted < 0 || still_open < 0 then
        fail "shard %d: due %d, admitted %d, committed %d, shed %d do not balance" s.shard
          due.(s.shard) s.submitted s.committed s.shed;
      unanswered := !unanswered + max 0 still_open)
    r.Serving.Tier.per_shard;
  let issued = Array.fold_left ( + ) 0 due in
  (* The generator draws one arrival past the window and drops it. *)
  if r.Serving.Tier.offered <> issued + 1 then
    fail "offered %d but %d arrivals were due in the window" r.Serving.Tier.offered issued;
  if r.Serving.Tier.completed + r.Serving.Tier.shed + !unanswered <> issued then
    fail "completed %d + shed %d + unanswered %d <> offered %d" r.Serving.Tier.completed
      r.Serving.Tier.shed !unanswered issued;
  (issued, !unanswered, List.rev !errors)

(* [t_live] is the virtual instant the cluster goes live under this
   engine seed ({!live_instant} finds it): a thunk scheduled there stamps
   the wall clock and the allocation counter, so the traffic phase is
   measured without the set-up. *)
let run_step ?(min_samples = 0) setup ~t_live ~shards ~rate_per_us ~duration ~pop_seed =
  let clients = clients_for ~rate_per_us in
  let live_at = ref (nan, 0.0) in
  let setup =
    {
      setup with
      Workload.Experiments.on_engine =
        Some
          (fun e ->
            Option.iter (fun f -> f e) setup.Workload.Experiments.on_engine;
            Sim.Engine.schedule e ~at:t_live (fun () ->
                live_at := (Unix.gettimeofday (), Gc.minor_words ())));
    }
  in
  (* Start from a collected heap, so this run does not pay for the
     garbage of the one before. *)
  Gc.full_major ();
  let w0 = Unix.gettimeofday () in
  let o =
    Watchdog.run_sim setup ~until:((duration * 50) + 1_000_000_000) (fun e ->
        let population = Serving.Population.create ~clients ~think_ns (Sim.Rng.create pop_seed) in
        Serving.Tier.run e setup.Workload.Experiments.cal config ~shards ~population ~duration ())
  in
  let report =
    match o.Watchdog.result with
    | Ok r -> r
    | Error (why, fiber) ->
      failwith
        (Printf.sprintf "Tier.run at %.3f req/us cut short: %s%s" rate_per_us why
           (match fiber with Some f -> " in fiber " ^ f | None -> ""))
  in
  let w1 = Unix.gettimeofday () and words1 = Gc.minor_words () in
  let wall_s = w1 -. w0 and live_wall_s = w1 -. fst !live_at in
  let setup_s = fst !live_at -. w0 in
  let words = words1 -. snd !live_at in
  let issued, unanswered, errors = balance ~shards ~clients ~duration ~pop_seed report in
  let errors =
    if report.Serving.Tier.completed < min_samples then
      errors
      @ [
          Printf.sprintf "p99 at %.3f req/us needs >= %d samples, got %d" rate_per_us min_samples
            report.Serving.Tier.completed;
        ]
    else errors
  in
  {
    rate_per_us;
    report;
    issued;
    unanswered;
    errors;
    wall_s;
    setup_s;
    live_wall_s;
    words;
    heap_words = o.Watchdog.peak_heap_words;
  }

(* The virtual instant the cluster goes live under this setup's engine
   seed: the end of the shortest Tier.run, a 1 ns window whose first
   arrival (gap >= 1 ns) is never due, less that gap. The population
   draws from its own stream, so this is the bring-up a measured run
   with the same engine seed goes through. *)
let live_instant setup ~shards =
  Workload.Experiments.run_sim setup (fun e ->
      let population = Serving.Population.create ~clients:1000 ~think_ns:1 (Sim.Rng.create 1L) in
      ignore
        (Serving.Tier.run e setup.Workload.Experiments.cal config ~shards ~population ~duration:1 ());
      Sim.Engine.now e - 1)

(* The ladder's p99 limit, µs, and the highest rate meeting it with
   nothing shed: linear in p99 between the last passing step and the
   first failing one, on a log-rate axis, so one seed moves it smoothly
   instead of by a whole step. *)
let slo_p99_us = 50.0

let slo_rate steps =
  let p99 s = float_of_int s.report.Serving.Tier.p99_ns /. 1000. in
  let ok s = p99 s <= slo_p99_us && s.report.Serving.Tier.shed = 0 && s.unanswered = 0 in
  let rec go = function
    | a :: (b :: _ as rest) ->
      if not (ok a) then 0.0
      else if ok b then go rest
      else begin
        let f =
          if p99 b > p99 a then Float.min 1.0 ((slo_p99_us -. p99 a) /. (p99 b -. p99 a)) else 0.0
        in
        a.rate_per_us *. ((b.rate_per_us /. a.rate_per_us) ** f)
      end
    | [ a ] -> if ok a then a.rate_per_us else 0.0
    | [] -> 0.0
  in
  go steps
