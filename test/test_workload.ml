(* Tests for the workload library: generators, and register-shaped and
   replicated-KV histories judged by the conformance checker. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- generators ------------------------------------------------------------ *)

let payload_size_and_determinism () =
  let r1 = Sim.Rng.create 3L and r2 = Sim.Rng.create 3L in
  let p1 = Workload.Generators.payload r1 ~size:64 in
  let p2 = Workload.Generators.payload r2 ~size:64 in
  check_int "size" 64 (Bytes.length p1);
  check "deterministic" true (Bytes.equal p1 p2)

let zipf_skew () =
  let rng = Sim.Rng.create 4L in
  let n = 1_000 in
  let counts = Array.make n 0 in
  for _ = 1 to 50_000 do
    let k = Workload.Generators.zipf rng ~n ~theta:0.99 in
    check "in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  (* Head keys dominate under Zipf 0.99. *)
  check "head heavier than tail" true (counts.(0) > 20 * max 1 counts.(n - 1));
  check "head around 12-18%" true (counts.(0) > 3_000 && counts.(0) < 12_000)

let zipf_uniform_when_theta_zero () =
  let rng = Sim.Rng.create 5L in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let k = Workload.Generators.zipf rng ~n:10 ~theta:0.0 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter (fun c -> check "roughly uniform" true (c > 700 && c < 1_300)) counts

let order_flow_generates_valid_commands () =
  let rng = Sim.Rng.create 6L in
  let flow = Workload.Generators.order_flow rng in
  let book = Apps.Order_book.create () in
  let rejected = ref 0 and total = 500 in
  for _ = 1 to total do
    let cmd = Workload.Generators.next_order flow in
    let events = Apps.Exchange.apply book cmd in
    List.iter
      (function Apps.Order_book.Rejected _ -> incr rejected | _ -> ())
      events
  done;
  (* Market orders on an empty side get rejected; everything else lands. *)
  check "mostly valid flow" true (!rejected * 5 < total);
  check "book active" true (Apps.Order_book.trades_executed book > 10)

(* --- register histories through the conformance checker --------------------- *)

(* Register-shaped KV histories: writes acked [Stored], reads answered
   with the value they observed or [Not_found]. Each row lists histories
   with the verdict Modelcheck.Conformance.check must reach (true =
   conformant). *)
let w ~proc ~inv ~res key value =
  {
    Workload.Chaos.r_proc = proc;
    r_req = inv;
    r_invoked = inv;
    r_responded = res;
    r_cmd = Apps.Kv_store.Put { key; value };
    r_reply = Some Apps.Kv_store.Stored;
  }

let r ~proc ~inv ~res key observed =
  {
    Workload.Chaos.r_proc = proc;
    r_req = inv;
    r_invoked = inv;
    r_responded = res;
    r_cmd = Apps.Kv_store.Get { key };
    r_reply =
      Some
        (match observed with
        | Some v -> Apps.Kv_store.Value v
        | None -> Apps.Kv_store.Not_found);
  }

let register_cases =
  [
    ( "lin: sequential ok",
      [
        ( [
            w ~proc:1 ~inv:0 ~res:1 "k" "a";
            r ~proc:1 ~inv:2 ~res:3 "k" (Some "a");
            w ~proc:1 ~inv:4 ~res:5 "k" "b";
            r ~proc:1 ~inv:6 ~res:7 "k" (Some "b");
          ],
          true );
      ] );
    ("lin: initial read none", [ ([ r ~proc:1 ~inv:0 ~res:1 "k" None ], true) ]);
    (* Reads strictly after both writes cannot see the older value. *)
    ( "lin: stale read rejected",
      [
        ( [
            w ~proc:1 ~inv:0 ~res:1 "k" "a";
            w ~proc:1 ~inv:2 ~res:3 "k" "b";
            r ~proc:2 ~inv:4 ~res:5 "k" (Some "a");
          ],
          false );
      ] );
    ( "lin: concurrent writes either order",
      List.map
        (fun v ->
          ( [
              w ~proc:1 ~inv:0 ~res:10 "k" "a";
              w ~proc:2 ~inv:0 ~res:10 "k" "b";
              r ~proc:3 ~inv:11 ~res:12 "k" (Some v);
            ],
            true ))
        [ "a"; "b" ] );
    (* Concurrent with the second write: may see either value. *)
    ( "lin: read during write flexible",
      [
        ( [
            w ~proc:1 ~inv:0 ~res:1 "k" "a";
            w ~proc:1 ~inv:5 ~res:15 "k" "b";
            r ~proc:2 ~inv:6 ~res:14 "k" (Some "a");
          ],
          true );
      ] );
    (* Two sequential reads around a concurrent write observing b then a:
       no single linearization point explains it. *)
    ( "lin: non-atomic history rejected",
      [
        ( [
            w ~proc:1 ~inv:0 ~res:1 "k" "a";
            w ~proc:1 ~inv:10 ~res:30 "k" "b";
            r ~proc:2 ~inv:12 ~res:14 "k" (Some "b");
            r ~proc:2 ~inv:16 ~res:18 "k" (Some "a");
          ],
          false );
      ] );
    ( "lin: keys independent",
      [
        ( [
            w ~proc:1 ~inv:0 ~res:1 "x" "1";
            w ~proc:1 ~inv:2 ~res:3 "y" "2";
            r ~proc:2 ~inv:4 ~res:5 "x" (Some "1");
            r ~proc:2 ~inv:6 ~res:7 "y" (Some "2");
          ],
          true );
      ] );
    (* A read strictly after an acked overwrite must observe the new value
       (or a later one). *)
    ( "lin: stale read after acked write",
      [
        ( [
            w ~proc:1 ~inv:0 ~res:1 "k" "v1";
            r ~proc:2 ~inv:2 ~res:3 "k" (Some "v1");
            w ~proc:1 ~inv:4 ~res:5 "k" "v2";
            r ~proc:3 ~inv:6 ~res:7 "k" (Some "v1");
          ],
          false );
      ] );
    (* Real-time order forbids the state from moving backwards across
       clients: "a" strictly before "b", then readers see b, then a. *)
    ( "lin: cross-client inversion",
      [
        ( [
            w ~proc:1 ~inv:0 ~res:1 "k" "a";
            w ~proc:2 ~inv:2 ~res:3 "k" "b";
            r ~proc:3 ~inv:4 ~res:5 "k" (Some "b");
            r ~proc:4 ~inv:6 ~res:7 "k" (Some "a");
          ],
          false );
      ] );
  ]

let register_case histories () =
  List.iter
    (fun (h, conformant) ->
      check "verdict" conformant (Modelcheck.Conformance.check h = None))
    histories

(* --- end to end: the replicated KV is linearizable -------------------------- *)

let replicated_kv_is_linearizable () =
  let e = Util.engine ~seed:21L () in
  let smr =
    Mu.Smr.create e Util.default_cal Mu.Config.default ~make_app:(fun _ ->
        Apps.Kv_store.smr_app ())
  in
  Mu.Smr.start smr;
  let history = ref [] in
  let n_clients = 4 and ops_per_client = 25 in
  let finished = ref 0 in
  for proc = 1 to n_clients do
    Sim.Engine.spawn e ~name:(Printf.sprintf "client%d" proc) (fun () ->
        Mu.Smr.wait_live smr;
        let rng = Sim.Rng.create (Int64.of_int (100 + proc)) in
        for i = 1 to ops_per_client do
          let key = Printf.sprintf "key%d" (Sim.Rng.int rng 3) in
          let req_id = (proc * 1000) + i in
          let cmd =
            if Sim.Rng.bool rng then
              Apps.Kv_store.Put { key; value = Printf.sprintf "p%d-%d" proc i }
            else Apps.Kv_store.Get { key }
          in
          let inv = Sim.Engine.now e in
          let reply =
            Mu.Smr.submit smr (Apps.Kv_store.encode_command ~client:proc ~req_id cmd)
          in
          history :=
            {
              Workload.Chaos.r_proc = proc;
              r_req = req_id;
              r_invoked = inv;
              r_responded = Sim.Engine.now e;
              r_cmd = cmd;
              r_reply = Apps.Kv_store.decode_reply reply;
            }
            :: !history
        done;
        incr finished;
        if !finished = n_clients then begin
          Mu.Smr.stop smr;
          Sim.Engine.halt e
        end)
  done;
  Sim.Engine.run ~until:120_000_000_000 e;
  check_int "all clients finished" n_clients !finished;
  check "replies conform to the KV model" true
    (Modelcheck.Conformance.check !history = None)

let suite =
  [
    ("payload generator", `Quick, payload_size_and_determinism);
    ("zipf skew", `Quick, zipf_skew);
    ("zipf uniform at theta 0", `Quick, zipf_uniform_when_theta_zero);
    ("order flow valid", `Quick, order_flow_generates_valid_commands);
  ]
  @ List.map
      (fun (name, histories) -> (name, `Quick, register_case histories))
      register_cases
  @ [ ("replicated kv is linearizable", `Quick, replicated_kv_is_linearizable) ]
