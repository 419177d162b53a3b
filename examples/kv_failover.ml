(* A replicated key-value store surviving repeated leader failures, with
   every client-observed reply checked against the pure KV model at the
   end — exercising the paper's linearizability claim (§1) end to end.

   Run with: dune exec examples/kv_failover.exe *)

let () =
  let engine = Sim.Engine.create ~seed:7L () in
  let smr =
    Mu.Smr.create engine Sim.Calibration.default Mu.Config.default ~make_app:(fun _ ->
        Apps.Kv_store.smr_app ())
  in
  Mu.Smr.start smr;
  let history = ref [] in
  let clients = 3 and rounds = 3 and ops_per_round = 15 in
  let done_count = ref 0 in

  (* A chaos fiber: pause the current leader once per round, let the
     cluster fail over, then bring it back. *)
  Sim.Engine.spawn engine ~name:"chaos" (fun () ->
      Mu.Smr.wait_live smr;
      for round = 1 to rounds do
        Sim.Engine.sleep engine 3_000_000;
        match Mu.Smr.leader smr with
        | Some leader ->
          Fmt.pr "[%.1f ms] chaos round %d: pausing leader %d@."
            (float_of_int (Sim.Engine.now engine) /. 1e6)
            round leader.Mu.Replica.id;
          Sim.Host.pause leader.Mu.Replica.host;
          Sim.Engine.sleep engine 4_000_000;
          Sim.Host.resume leader.Mu.Replica.host;
          Fmt.pr "[%.1f ms] leader %d resumed@."
            (float_of_int (Sim.Engine.now engine) /. 1e6)
            leader.Mu.Replica.id
        | None -> ()
      done);

  for proc = 1 to clients do
    Sim.Engine.spawn engine ~name:(Printf.sprintf "client%d" proc) (fun () ->
        Mu.Smr.wait_live smr;
        let rng = Sim.Rng.create (Int64.of_int (proc * 31)) in
        for i = 1 to rounds * ops_per_round do
          Sim.Engine.sleep engine (100_000 + Sim.Rng.int rng 400_000);
          let key = Printf.sprintf "k%d" (Sim.Rng.int rng 4) in
          let req_id = (proc * 10_000) + i in
          let cmd =
            if Sim.Rng.bool rng then
              Apps.Kv_store.Put { key; value = Printf.sprintf "c%d-%d" proc i }
            else Apps.Kv_store.Get { key }
          in
          let invoked = Sim.Engine.now engine in
          let reply =
            Mu.Smr.submit smr (Apps.Kv_store.encode_command ~client:proc ~req_id cmd)
          in
          history :=
            {
              Workload.Chaos.r_proc = proc;
              r_req = req_id;
              r_invoked = invoked;
              r_responded = Sim.Engine.now engine;
              r_cmd = cmd;
              r_reply = Apps.Kv_store.decode_reply reply;
            }
            :: !history
        done;
        incr done_count;
        if !done_count = clients then begin
          Mu.Smr.stop smr;
          Sim.Engine.halt engine
        end)
  done;

  Sim.Engine.run ~until:300_000_000_000 engine;
  let ops = !history in
  Fmt.pr "@.%d operations from %d clients across %d forced fail-overs@." (List.length ops)
    clients rounds;
  let reads =
    List.length
      (List.filter
         (fun (r : Workload.Chaos.recorded) ->
           match r.r_cmd with Apps.Kv_store.Get _ -> true | _ -> false)
         ops)
  in
  Fmt.pr "  %d writes, %d reads@." (List.length ops - reads) reads;
  match Modelcheck.Conformance.check ops with
  | None ->
    Fmt.pr
      "  every reply CONFORMS to the sequential KV model — strong consistency held \
       through failures@."
  | Some w ->
    Fmt.pr "  replies do NOT conform to the KV model — consistency violation!@.  %a@."
      Modelcheck.Conformance.pp_witness w;
    exit 1
