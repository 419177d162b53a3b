(* Profile library: virtual-time profiler determinism and exactness,
   the perf-regression compare gate, wheel occupancy stats, and the
   shared stack-attribution core. *)

module E = Workload.Experiments
module Vt = Profile.Vt
module J = Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- virtual-time profiler ---------------------------------------------- *)

(* Failover with a profiler attached to every engine the experiment
   creates; provenance on so span frames appear in the stacks. *)
let profiled_failover ?(rounds = 2) seed =
  let vts = ref [] in
  let setup =
    {
      E.seed;
      cal = Util.default_cal;
      trace = None;
      metrics = None;
      faults = None;
      provenance = true;
      on_engine = Some (fun e -> vts := Vt.attach e :: !vts);
    }
  in
  let (_ : E.failover_stats) = E.failover setup ~rounds in
  match !vts with
  | [] -> Alcotest.fail "profiler never attached"
  | vts ->
    List.iter Vt.finish vts;
    vts

let exports vts =
  let folded = Vt.folded vts in
  (Vt.to_folded_string folded, Vt.to_speedscope_string folded)

let profile_deterministic () =
  let fa, sa = exports (profiled_failover 7L) in
  let fb, sb = exports (profiled_failover 7L) in
  check_str "byte-identical folded export" fa fb;
  check_str "byte-identical speedscope export" sa sb;
  check "folded export is non-trivial" true (String.length fa > 0);
  let fc, _ = exports (profiled_failover 8L) in
  check "different seed changes the profile" true (fa <> fc)

(* The same-seed traced failover, with [observe] run on every engine
   before any work is scheduled. Returns what an observer must not
   change: the trace bytes, the final virtual clock and the next PRNG
   draw. *)
let traced_failover ?(observe = fun _ -> ()) seed =
  let tr = Trace.Tracer.create ~capacity:65_536 () in
  let eng = ref None in
  let setup =
    {
      E.seed;
      cal = Util.default_cal;
      trace = Some tr;
      metrics = None;
      faults = None;
      provenance = false;
      on_engine =
        Some
          (fun e ->
            eng := Some e;
            observe e);
    }
  in
  let (_ : E.failover_stats) = E.failover setup ~rounds:2 in
  match !eng with
  | None -> Alcotest.fail "on_engine never called"
  | Some e ->
    (Trace.Tracer.chrome_string tr, Sim.Engine.now e, Sim.Rng.int64 (Sim.Engine.rng e))

let check_unperturbed what (trace_off, now_off, draw_off) (trace_on, now_on, draw_on) =
  check_str ("trace bytes unchanged by " ^ what) trace_off trace_on;
  check_int ("virtual clock unchanged by " ^ what) now_off now_on;
  check ("PRNG stream unchanged by " ^ what) true (Int64.equal draw_off draw_on)

(* The profiler must be a pure observer: with it attached (vs not), the
   trace bytes, the final virtual clock and the post-run PRNG state of
   the same-seed run are all unchanged. *)
let profile_off_byte_identical () =
  let off = traced_failover 7L in
  let vts = ref [] in
  let on = traced_failover ~observe:(fun e -> vts := Vt.attach e :: !vts) 7L in
  List.iter Vt.finish !vts;
  check_unperturbed "profiler" off on

(* An observer that only counts its callbacks. *)
let counting () =
  let events = ref 0 and claims = ref 0 in
  ( events,
    claims,
    {
      Sim.Engine.prof_event = (fun ~now:_ -> incr events);
      prof_attr = (fun ~pid:_ ~tid:_ ~spans:_ -> incr claims);
      prof_fiber = (fun ~tid:_ ~pid:_ ~name:_ -> ());
      prof_span = (fun ~id:_ ~name:_ -> ());
      prof_host = (fun ~pid:_ ~name:_ -> ());
    } )

(* Subscribers stack: a counting observer, the profiler, a second
   counting observer and telemetry on one engine all see the whole run.
   Each counter sees one [prof_event] per executed event, the profiler
   still sums exactly to the span, and the run is unperturbed. *)
let observers_stack () =
  let off = traced_failover 7L in
  let events1, claims1, c1 = counting () in
  let events2, claims2, c2 = counting () in
  let vts = ref [] and regs = ref [] in
  let observe e =
    Sim.Engine.set_profiler e c1;
    vts := Vt.attach e :: !vts;
    Sim.Engine.set_profiler e c2;
    let reg = Telemetry.Registry.create () in
    Sim.Engine.set_metrics e reg;
    regs := reg :: !regs
  in
  let on = traced_failover ~observe 7L in
  List.iter Vt.finish !vts;
  let events_total =
    List.fold_left
      (fun acc reg ->
        match Telemetry.Registry.find reg "sim_events_total" with
        | Some { Telemetry.Registry.kind = Telemetry.Registry.Counter c; _ } ->
          acc + Telemetry.Registry.Counter.value c
        | _ -> Alcotest.fail "sim_events_total not registered")
      0 !regs
  in
  check "events were counted" true (events_total > 0);
  check_int "first subscriber sees every event" events_total !events1;
  check_int "second subscriber sees every event" events_total !events2;
  check_int "both claim the same intervals" !claims1 !claims2;
  List.iter
    (fun vt -> check_int "profiler sum is exact" (Vt.span_ns vt) (Vt.total_ns (Vt.folded_of vt)))
    !vts;
  check_unperturbed "stacked observers" off on

let profile_exact_sum () =
  let vts = profiled_failover 11L in
  let span = List.fold_left (fun a vt -> a + Vt.span_ns vt) 0 vts in
  let folded = Vt.folded vts in
  check "run has positive span" true (span > 0);
  check_int "exclusive weights sum exactly to the span" span (Vt.total_ns folded);
  List.iter
    (fun vt ->
      check_int "per-engine sum is exact" (Vt.span_ns vt) (Vt.total_ns (Vt.folded_of vt));
      check "idle bucket within span" true
        (Vt.idle_ns vt >= 0 && Vt.idle_ns vt <= Vt.span_ns vt))
    vts

(* Export identity across commits: a 2-round seed-7 failover with a
   metrics sampler and the profiler both attached. The telemetry JSON
   (engine counters, wheel gauges and their series) and the folded
   profile are pinned by their MD5s, so a change to how either plane
   hooks the engine must reproduce both documents byte for byte. *)
let golden name =
  let ic = open_in_bin ("golden/" ^ name) in
  let s = String.trim (In_channel.input_all ic) in
  close_in ic;
  s

let observed_exports_pinned () =
  let sampler = Telemetry.Sampler.create (Telemetry.Registry.create ()) ~interval:50_000 in
  let vts = ref [] in
  let setup =
    {
      E.seed = 7L;
      cal = Util.default_cal;
      trace = None;
      metrics = Some sampler;
      faults = None;
      provenance = true;
      on_engine = Some (fun e -> vts := Vt.attach e :: !vts);
    }
  in
  let (_ : E.failover_stats) = E.failover setup ~rounds:2 in
  List.iter Vt.finish !vts;
  let md5 s = Digest.to_hex (Digest.string s) in
  check_str "telemetry JSON digest" (golden "failover_metrics_seed7.md5")
    (md5 (Telemetry.Export.json ~sampler (Telemetry.Sampler.registry sampler)));
  check_str "folded profile digest" (golden "failover_folded_seed7.md5")
    (md5 (Vt.to_folded_string (Vt.folded !vts)))

(* Profiler off must add nothing to the per-event hot path: the same
   workload as the engine's resume-allocation regression test must stay
   within the same budget (the profiler hook is a single field check). *)
let profile_off_zero_allocation () =
  let e = Util.engine () in
  for _ = 1 to 8 do
    Sim.Engine.spawn e (fun () ->
        for _ = 1 to 5_000 do
          Sim.Engine.sleep e 100
        done)
  done;
  let w0 = Gc.minor_words () in
  Sim.Engine.run e;
  let per_sleep = (Gc.minor_words () -. w0) /. 40_000.0 in
  if per_sleep > 48.0 then
    Alcotest.failf "profile-off sleep path allocated %.1f minor words per sleep" per_sleep

(* --- compare gate -------------------------------------------------------- *)

let doc s =
  match J.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "test JSON does not parse: %s" e

let base_doc =
  doc
    {|{"schema":"mu-bench-results/1","seed":42,"quick":true,
       "replication_latency_ns":{"p50":1000,"p99":2000},
       "checks":[{"name":"smr_agree","ok":true}]}|}

let variant ~p99 ~ok =
  doc
    (Printf.sprintf
       {|{"schema":"mu-bench-results/1","seed":42,"quick":true,
          "replication_latency_ns":{"p50":1000,"p99":%d},
          "checks":[{"name":"smr_agree","ok":%b}]}|}
       p99 ok)

let compare_identical () =
  let r = Profile.Compare.run ~baseline:base_doc ~current:base_doc () in
  check "identical docs are comparable" true r.Profile.Compare.comparable;
  check "identical docs do not regress" false (Profile.Compare.regressed r);
  check "latency fields were compared" true (List.length r.Profile.Compare.fields >= 2);
  check "absent fields are skipped, not failed" true (r.Profile.Compare.skipped <> [])

let compare_regression () =
  let r =
    Profile.Compare.run ~baseline:base_doc ~current:(variant ~p99:3000 ~ok:true) ()
  in
  check "p99 +50%% beyond 10%% tolerance regresses" true (Profile.Compare.regressed r);
  let p99 =
    List.find
      (fun f -> f.Profile.Compare.f_path = "replication_latency_ns.p99")
      r.Profile.Compare.fields
  in
  check "the regressed field is flagged" true p99.Profile.Compare.f_regressed

let compare_within_tolerance () =
  let r =
    Profile.Compare.run ~baseline:base_doc ~current:(variant ~p99:2100 ~ok:true) ()
  in
  check "+5%% within 10%% tolerance passes" false (Profile.Compare.regressed r)

let compare_higher_is_better () =
  let rules =
    [ { Profile.Compare.r_path = [ "rate" ]; r_dir = `Higher_is_better; r_tol_pct = 10.0 } ]
  in
  let with_rate v =
    doc
      (Printf.sprintf {|{"schema":"mu-bench-results/1","seed":1,"quick":false,"rate":%d}|} v)
  in
  let worse =
    Profile.Compare.run ~rules ~baseline:(with_rate 100) ~current:(with_rate 80) ()
  in
  check "-20%% throughput beyond tolerance regresses" true (Profile.Compare.regressed worse);
  let fine =
    Profile.Compare.run ~rules ~baseline:(with_rate 100) ~current:(with_rate 95) ()
  in
  check "-5%% throughput within tolerance passes" false (Profile.Compare.regressed fine)

let compare_seed_mismatch () =
  let other = doc {|{"schema":"mu-bench-results/1","seed":43,"quick":true}|} in
  let r = Profile.Compare.run ~baseline:base_doc ~current:other () in
  check "seed mismatch is incomparable" false r.Profile.Compare.comparable;
  check "incomparable carries no verdict" false (Profile.Compare.regressed r);
  check "note explains why" true (r.Profile.Compare.note <> "")

let compare_check_broken () =
  let r =
    Profile.Compare.run ~baseline:base_doc ~current:(variant ~p99:2000 ~ok:false) ()
  in
  check "a check going ok->fail regresses" true (Profile.Compare.regressed r);
  check "the broken check is named" true
    (r.Profile.Compare.checks_broken = [ "smr_agree" ])

(* --- wheel occupancy ------------------------------------------------------ *)

let wheel_stats () =
  let w = Sim.Wheel.create () in
  Sim.Wheel.push w ~key:10 ~seq:0 "l0";
  Sim.Wheel.push w ~key:10_000 ~seq:1 "l1";
  Sim.Wheel.push w ~key:5_000_000 ~seq:2 "l2";
  Sim.Wheel.push w ~key:(1 lsl 33) ~seq:3 "far";
  check_int "short delay sits at level 0" 1 (Sim.Wheel.level_events w 0);
  check_int "10us delay sits at level 1" 1 (Sim.Wheel.level_events w 1);
  check_int "5ms delay sits at level 2" 1 (Sim.Wheel.level_events w 2);
  check_int "beyond-horizon event overflows" 1 (Sim.Wheel.overflow_size w);
  let s = Sim.Wheel.stats w in
  let in_levels = Array.fold_left ( + ) 0 s.Sim.Wheel.level_events in
  check_int "stats account for every queued event" (Sim.Wheel.length w)
    (in_levels + s.Sim.Wheel.past + s.Sim.Wheel.overflow);
  check "occupied slots are counted" true
    (Array.fold_left ( + ) 0 s.Sim.Wheel.level_slots >= 3);
  (* Popping advances the wheel clock; pushing behind it lands in the
     past heap, which still drains first. *)
  check_str "pops in key order" "l0" (Sim.Wheel.pop_exn w);
  Sim.Wheel.push w ~key:1 ~seq:4 "late";
  check_int "behind-the-clock push goes to the past heap" 1 (Sim.Wheel.past_size w);
  check_str "past heap drains first" "late" (Sim.Wheel.pop_exn w)

(* --- stack attribution core ----------------------------------------------- *)

let ev ts kind name = { Sim.Probe.ts; kind; name; cat = "t"; pid = 1; tid = 1; id = 0; args = [] }

let attrib_exclusive () =
  let a = Trace.Attrib.create () in
  let closed = ref [] in
  Trace.Attrib.on_close a (fun ~cat:_ ~name ~pid:_ ~tid:_ ~inclusive ~exclusive ->
      closed := (name, inclusive, exclusive) :: !closed);
  (* parent open 0..100 with a child 20..50: parent exclusive = 70 *)
  Trace.Attrib.add a (ev 0 Sim.Probe.Span_begin "parent");
  Trace.Attrib.add a (ev 20 Sim.Probe.Span_begin "child");
  Trace.Attrib.add a (ev 50 Sim.Probe.Span_end "child");
  Trace.Attrib.add a (ev 100 Sim.Probe.Span_end "parent");
  check_int "all frames matched" 0 (Trace.Attrib.unmatched a);
  check_int "no frames left open" 0 (Trace.Attrib.open_frames a);
  (match List.assoc_opt "child" (List.map (fun (n, i, x) -> (n, (i, x))) !closed) with
  | Some (i, x) ->
    check_int "child inclusive" 30 i;
    check_int "child exclusive" 30 x
  | None -> Alcotest.fail "child frame never closed");
  match List.assoc_opt "parent" (List.map (fun (n, i, x) -> (n, (i, x))) !closed) with
  | Some (i, x) ->
    check_int "parent inclusive" 100 i;
    check_int "parent exclusive (child time removed)" 70 x
  | None -> Alcotest.fail "parent frame never closed"

let attrib_frame_totals () =
  let folded = [ ([ "parent" ], 70); ([ "parent"; "child" ], 30) ] in
  match Trace.Attrib.frame_totals folded with
  | [ ("child", cs, ct); ("parent", ps, pt) ] ->
    check_int "child self" 30 cs;
    check_int "child total" 30 ct;
    check_int "parent self" 70 ps;
    check_int "parent total (self + child)" 100 pt
  | other ->
    Alcotest.failf "unexpected frame_totals shape (%d rows)" (List.length other)

let suite =
  [
    Alcotest.test_case "same seed gives byte-identical exports" `Quick profile_deterministic;
    Alcotest.test_case "profiler attach does not perturb the run" `Quick
      profile_off_byte_identical;
    Alcotest.test_case "exclusive times sum exactly to the span" `Quick profile_exact_sum;
    Alcotest.test_case "observers stack on one engine" `Quick observers_stack;
    Alcotest.test_case "telemetry and folded exports pinned (golden)" `Quick
      observed_exports_pinned;
    Alcotest.test_case "profile off allocates nothing extra" `Quick
      profile_off_zero_allocation;
    Alcotest.test_case "compare: identical results pass" `Quick compare_identical;
    Alcotest.test_case "compare: beyond-tolerance regression fails" `Quick compare_regression;
    Alcotest.test_case "compare: within-tolerance drift passes" `Quick
      compare_within_tolerance;
    Alcotest.test_case "compare: higher-is-better direction" `Quick compare_higher_is_better;
    Alcotest.test_case "compare: seed mismatch is incomparable" `Quick compare_seed_mismatch;
    Alcotest.test_case "compare: broken check regresses" `Quick compare_check_broken;
    Alcotest.test_case "wheel occupancy stats" `Quick wheel_stats;
    Alcotest.test_case "attrib: exclusive vs inclusive" `Quick attrib_exclusive;
    Alcotest.test_case "attrib: frame totals from folded stacks" `Quick attrib_frame_totals;
  ]
