type report = {
  cases : int;
  failed : int;
  verdicts : (int64 * int * Conformance.verdict) list;
  coverage : Faults.Scenario.coverage;
  op_stats : History.stats;
  first_witness : Conformance.witness option;
  minimized : (Repro.t * Shrink.shrunk) option;
}

(* The sweep loop both sweeps share. Each case derives its seed from the
   root PRNG and its cluster size from [ns]; one per-case PRNG seeded with
   that seed generates the scenario and is handed on to [f], so the whole
   case replays from its seed alone. Returns the generated fault mix. *)
let each_case ~count ~ns ~seed f =
  let root = Sim.Rng.create seed in
  let ns = Array.of_list ns in
  let scenarios = ref [] in
  for i = 0 to count - 1 do
    let run_seed = Sim.Rng.int64 root in
    let n = ns.(i mod Array.length ns) in
    let crng = Sim.Rng.create run_seed in
    let scenario = Faults.Scenario.generate crng ~n ~horizon:40_000_000 in
    scenarios := scenario :: !scenarios;
    f i ~run_seed ~n crng scenario
  done;
  Faults.Scenario.coverage (List.rev !scenarios)

let sweep ?(cases = 25) ?(ns = [ 3; 5 ]) ?(inject = 0) ?(clients = 3)
    ?(ops_per_client = 8) ?budget ?(log = fun _ -> ()) ~seed () =
  let verdicts = ref [] in
  let stats = ref { History.h_ops = 0; h_puts = 0; h_gets = 0; h_deletes = 0 } in
  let first_failure = ref None in
  let coverage =
    each_case ~count:cases ~ns ~seed (fun i ~run_seed ~n crng scenario ->
        let history = History.generate ~clients ~ops_per_client crng in
        let s = History.stats history in
        stats :=
          {
            History.h_ops = !stats.History.h_ops + s.History.h_ops;
            h_puts = !stats.History.h_puts + s.History.h_puts;
            h_gets = !stats.History.h_gets + s.History.h_gets;
            h_deletes = !stats.History.h_deletes + s.History.h_deletes;
          };
        let triple =
          {
            Shrink.t_seed = run_seed;
            t_n = n;
            t_inject = inject;
            t_scenario = scenario;
            t_history = history;
          }
        in
        let r = Shrink.run triple in
        verdicts := (run_seed, n, r.Shrink.verdict) :: !verdicts;
        log
          (Fmt.str "case %3d  seed=%-20Ld n=%d  %-18s %s" i run_seed n
             scenario.Faults.Scenario.name
             (Conformance.verdict_to_string r.Shrink.verdict));
        if Conformance.failing r.Shrink.verdict && !first_failure = None then
          first_failure := Some (triple, r))
  in
  let minimized, first_witness =
    match !first_failure with
    | None -> (None, None)
    | Some (triple, r) ->
      let shrunk = Shrink.shrink ?budget ~log triple r in
      ( Some
          ( {
              Repro.b_triple = shrunk.Shrink.minimized;
              b_verdict = shrunk.Shrink.final.Shrink.verdict;
            },
            shrunk ),
        r.Shrink.witness )
  in
  let verdicts = List.rev !verdicts in
  {
    cases;
    failed =
      List.length
        (List.filter (fun (_, _, v) -> Conformance.failing v) verdicts);
    verdicts;
    coverage;
    op_stats = !stats;
    first_witness;
    minimized;
  }

let replay (b : Repro.t) =
  let r = Shrink.run b.Repro.b_triple in
  ( r,
    Repro.to_string
      { Repro.b_triple = b.Repro.b_triple; b_verdict = r.Shrink.verdict } )

type chaos_sweep = {
  runs : int;
  failures : Workload.Chaos.outcome list;
  fault_mix : Faults.Scenario.coverage;
}

let chaos_sweep ?(count = 50) ?(ns = [ 3; 5 ]) ?log ~seed () =
  let failures = ref [] in
  let fault_mix =
    each_case ~count ~ns ~seed (fun i ~run_seed ~n _ scenario ->
        let o = Workload.Chaos.run ~seed:run_seed ~n scenario in
        if not (Conformance.passed o) then failures := o :: !failures;
        Option.iter (fun f -> f i o) log)
  in
  { runs = count; failures = List.rev !failures; fault_mix }
