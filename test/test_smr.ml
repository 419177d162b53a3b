(* Tests for the SMR façade: client path, batching, pipelining, response
   delivery, replayer integration, recycling, and failover behaviour at
   the system level. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let counting_app () =
  let log = ref [] in
  ( log,
    fun _id ->
      Mu.Smr.stateless_app (fun req ->
          log := Bytes.to_string req :: !log;
          Bytes.of_string ("ack:" ^ Bytes.to_string req)) )

let with_smr ?(cfg = Mu.Config.default) ?(make_app = fun _ -> Mu.Smr.stateless_app Fun.id)
    ?(instrument = ignore) f =
  let e = Util.engine () in
  instrument e;
  let smr = Mu.Smr.create e Util.default_cal cfg ~make_app in
  Mu.Smr.start smr;
  let result = ref None in
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      result := Some (f e smr);
      Mu.Smr.stop smr;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:120_000_000_000 e;
  match !result with Some r -> r | None -> Alcotest.fail "scenario did not finish"

let batch_roundtrip () =
  let payloads = [ Bytes.of_string "a"; Bytes.empty; Bytes.of_string "ccc" ] in
  match Mu.Smr.decode_batch (Mu.Smr.encode_batch payloads) with
  | Some got ->
    Alcotest.(check (list string))
      "roundtrip"
      (List.map Bytes.to_string payloads)
      (List.map Bytes.to_string got)
  | None -> Alcotest.fail "decode failed"

let empty_batch_roundtrip () =
  match Mu.Smr.decode_batch (Mu.Smr.encode_batch []) with
  | Some [] -> ()
  | Some _ | None -> Alcotest.fail "expected empty batch"

let submit_gets_response () =
  with_smr
    ~make_app:(fun _ -> Mu.Smr.stateless_app (fun req -> Bytes.cat (Bytes.of_string "r:") req))
    (fun e smr ->
      Mu.Smr.wait_live smr;
      let resp = Mu.Smr.submit smr (Bytes.of_string "ping") in
      Alcotest.(check string) "response" "r:ping" (Bytes.to_string resp);
      ignore e)

let submissions_execute_in_order () =
  let log, make_app = counting_app () in
  with_smr ~make_app (fun e smr ->
      Mu.Smr.wait_live smr;
      for i = 1 to 20 do
        ignore (Mu.Smr.submit smr (Bytes.of_string (string_of_int i)))
      done;
      ignore e);
  let leader_view = List.rev !log in
  (* Every replica applied; the leader applied each exactly once, in
     order. With 3 replicas each request appears up to 3 times overall;
     check the leader's subsequence by deduplication order. *)
  let seen = Hashtbl.create 16 in
  let firsts =
    List.filter
      (fun s ->
        if Hashtbl.mem seen s then false
        else begin
          Hashtbl.add seen s ();
          true
        end)
      leader_view
  in
  Alcotest.(check (list string))
    "first occurrences in submission order"
    (List.init 20 (fun i -> string_of_int (i + 1)))
    firsts

let followers_apply_too () =
  let applied = Array.make 3 0 in
  with_smr
    ~make_app:(fun id ->
      Mu.Smr.stateless_app (fun _ ->
          applied.(id) <- applied.(id) + 1;
          Bytes.empty))
    (fun e smr ->
      Mu.Smr.wait_live smr;
      for _ = 1 to 10 do
        ignore (Mu.Smr.submit smr (Bytes.of_string "x"))
      done;
      (* One more commit so piggybacking releases the 10th, then wait. *)
      ignore (Mu.Smr.submit smr (Bytes.of_string "last"));
      Sim.Engine.sleep e 2_000_000;
      check "replica 1 applied >= 10" true (applied.(1) >= 10);
      check "replica 2 applied >= 10" true (applied.(2) >= 10))

let batching_coalesces () =
  let cfg = { Mu.Config.default with Mu.Config.max_batch = 8 } in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      let leader = Option.get (Mu.Smr.leader smr) in
      let fuo_before = Mu.Log.fuo leader.Mu.Replica.log in
      (* Submit a burst asynchronously, then wait for all responses. *)
      let ivs =
        List.init 16 (fun i -> Mu.Smr.submit_async smr (Bytes.of_string (string_of_int i)))
      in
      List.iter (fun iv -> ignore (Sim.Engine.Ivar.read iv)) ivs;
      let slots_used = Mu.Log.fuo leader.Mu.Replica.log - fuo_before in
      check
        (Printf.sprintf "batched into fewer slots (%d for 16 requests)" slots_used)
        true (slots_used < 16);
      ignore e)

let pipelining_works () =
  let cfg = { Mu.Config.default with Mu.Config.max_outstanding = 4 } in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      let ivs =
        List.init 40 (fun i -> Mu.Smr.submit_async smr (Bytes.of_string (string_of_int i)))
      in
      List.iter (fun iv -> ignore (Sim.Engine.Ivar.read iv)) ivs;
      (* All committed and in log order on the leader. *)
      let leader = Option.get (Mu.Smr.leader smr) in
      check "all requests committed" true (Mu.Log.fuo leader.Mu.Replica.log >= 40);
      ignore e)

let pipelined_throughput_exceeds_serial () =
  let run cfg n =
    with_smr ~cfg (fun e smr ->
        Mu.Smr.wait_live smr;
        let t0 = Sim.Engine.now e in
        let ivs = List.init n (fun _ -> Mu.Smr.submit_async smr (Bytes.make 64 'x')) in
        List.iter (fun iv -> ignore (Sim.Engine.Ivar.read iv)) ivs;
        Sim.Engine.now e - t0)
  in
  let serial = run Mu.Config.default 200 in
  let piped = run { Mu.Config.default with Mu.Config.max_outstanding = 8 } 200 in
  check
    (Printf.sprintf "pipelining faster (serial %dns vs piped %dns)" serial piped)
    true
    (piped * 3 < serial * 2)

(* Trace identity of the leader's window loop across commits: a
   provenance-traced windowed run is pinned by its MD5, one digest for
   single-slot groups (the Fig. 7 pipeline) and one for doorbell groups
   of four. A refactor that claims equal output must keep both. *)
let window_trace_digest cfg =
  let tr = Trace.Tracer.create () in
  let instrument e =
    Trace.Tracer.attach tr e;
    Sim.Engine.set_provenance e true
  in
  with_smr ~cfg ~instrument (fun _ smr ->
      Mu.Smr.wait_live smr;
      for round = 0 to 3 do
        let ivs =
          List.init 24 (fun i ->
              Mu.Smr.submit_async smr (Bytes.of_string (Printf.sprintf "r%d-%d" round i)))
        in
        List.iter (fun iv -> ignore (Sim.Engine.Ivar.read iv)) ivs
      done);
  Digest.to_hex (Digest.string (Trace.Tracer.chrome_string tr))

let golden name =
  let ic = open_in_bin ("golden/" ^ name) in
  let s = String.trim (In_channel.input_all ic) in
  close_in ic;
  s

let window_trace_digests_pinned () =
  let window = { Mu.Config.default with Mu.Config.max_outstanding = 4 } in
  Alcotest.(check string)
    "doorbell-1 window trace digest" (golden "smr_window_d1_seed7.md5")
    (window_trace_digest window);
  Alcotest.(check string)
    "doorbell-4 window trace digest" (golden "smr_window_d4_seed7.md5")
    (window_trace_digest { window with Mu.Config.max_batch = 4; doorbell = 4 })

(* Window acks are matched by a tag unique to each slot group. A tracked
   success left over from an earlier round (a straggler ack of the
   establish no-op, or an aborted term's write) whose tag happens to equal
   the next slot index must not count towards that slot's majority: with
   n = 5 and three followers slowed down, the reply may only arrive once
   three logs hold the slot. *)
let window_ignores_stale_completion () =
  let cfg = { Mu.Config.default with Mu.Config.n = 5; max_outstanding = 4 } in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      let l = Option.get (Mu.Smr.leader smr) in
      let lid = l.Mu.Replica.id in
      let followers = List.filter (( <> ) lid) [ 0; 1; 2; 3; 4 ] in
      let slow = List.filteri (fun i _ -> i < 3) followers in
      List.iter
        (fun f -> Sim.Fabric.set_delay (Sim.Engine.fabric e) ~src:lid ~dst:f 50_000)
        slow;
      let idx = Mu.Log.fuo l.Mu.Replica.log in
      let iv = Mu.Smr.submit_async ~retry:false smr (Bytes.of_string "x") in
      while Mu.Log.read_slot l.Mu.Replica.log idx = None do
        Sim.Engine.sleep e 10
      done;
      let wr = Mu.Replica.fresh_wr_id l in
      Hashtbl.replace l.Mu.Replica.inflight wr (List.hd slow, idx);
      Rdma.Cq.push l.Mu.Replica.repl_cq
        { Rdma.Verbs.wr_id = wr; kind = `Write; status = Rdma.Verbs.Success; byte_len = 0 };
      ignore (Sim.Engine.Ivar.read iv);
      let holders =
        Array.fold_left
          (fun acc (r : Mu.Replica.t) ->
            if Mu.Log.read_slot r.Mu.Replica.log idx <> None then acc + 1 else acc)
          0 (Mu.Smr.replicas smr)
      in
      check
        (Printf.sprintf "reply only once a majority holds slot %d (%d of 5)" idx holders)
        true (holders >= 3))

(* A fill step takes its batches off the queue and opens their spans
   before the group's write is posted. If the post aborts — here the
   leader loses write permission on its own log while it stages the
   group — those requests must go back to the queue, not vanish: a
   ~retry:false client is answered once the leader re-establishes. *)
let window_requeues_aborted_fill () =
  let cfg =
    { Mu.Config.default with Mu.Config.n = 3; max_outstanding = 4; doorbell = 4; max_batch = 8 }
  in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      ignore (Mu.Smr.submit smr (Bytes.of_string "warm-up"));
      let l = Option.get (Mu.Smr.leader smr) in
      let iv = Mu.Smr.submit_async ~retry:false smr (Bytes.of_string "x") in
      while Mu.Smr.queue_depth smr > 0 do
        Sim.Engine.sleep e 1
      done;
      l.Mu.Replica.perm_holder <- Some ((l.Mu.Replica.id + 1) mod 3);
      let deadline = Sim.Engine.now e + 5_000_000 in
      while (not (Sim.Engine.Ivar.is_filled iv)) && Sim.Engine.now e < deadline do
        Sim.Engine.sleep e 1_000
      done;
      check "aborted fill's request answered within 5 ms" true (Sim.Engine.Ivar.is_filled iv))

(* An idle window loop waits on the request queue, so a request that
   reaches an idle leader is replicated at once, wherever it falls in the
   loop's fd_read_interval (40 µs) wait. *)
let window_wakes_on_request () =
  let cfg = { Mu.Config.default with Mu.Config.max_outstanding = 4; doorbell = 4; max_batch = 8 } in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      ignore (Mu.Smr.submit smr (Bytes.of_string "warm-up"));
      List.iter
        (fun offset_us ->
          Sim.Engine.sleep e (offset_us * 1_000);
          let t0 = Sim.Engine.now e in
          ignore (Mu.Smr.submit smr (Bytes.of_string (string_of_int offset_us)));
          let dt = Sim.Engine.now e - t0 in
          check
            (Printf.sprintf "reply %d ns after a submit %d us after the last commit" dt offset_us)
            true (dt <= 3_000))
        [ 0; 7; 13; 29; 39 ])

(* While idle the loop does not wait on the replication CQ, so it reaps
   what lands there (late acks, recycler zeroing writes) before each
   wait: after two idle waits nothing is left over. *)
let window_reaps_while_idle () =
  let cfg = { Mu.Config.default with Mu.Config.max_outstanding = 4; doorbell = 4; max_batch = 8 } in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      ignore (Mu.Smr.submit smr (Bytes.of_string "x"));
      let l = Option.get (Mu.Smr.leader smr) in
      Sim.Engine.sleep e (2 * Util.default_cal.Sim.Calibration.fd_read_interval);
      check_int "replication CQ reaped" 0 (Rdma.Cq.pending l.Mu.Replica.repl_cq);
      check_int "recycler writes reaped" 0 l.Mu.Replica.recycler_outstanding)

let failover_under_load () =
  let log, make_app = counting_app () in
  with_smr ~make_app (fun e smr ->
      Mu.Smr.wait_live smr;
      ignore (Mu.Smr.submit smr (Bytes.of_string "pre"));
      let r0 = Mu.Smr.replica smr 0 in
      Sim.Host.pause r0.Mu.Replica.host;
      (* The request retransmits to the new leader and commits. *)
      let resp = Mu.Smr.submit smr (Bytes.of_string "during") in
      check "committed during failover" true (Bytes.length resp >= 0);
      let r1 = Mu.Smr.replica smr 1 in
      check "new leader serving" true (Mu.Replica.is_leader r1);
      Sim.Host.resume r0.Mu.Replica.host;
      Util.wait_for (fun () -> Mu.Replica.is_leader r0) e;
      let resp2 = Mu.Smr.submit smr (Bytes.of_string "after") in
      ignore resp2;
      check "requests were executed" true (List.mem "during" !log && List.mem "after" !log))

let no_unique_leader_during_transition () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      let r0 = Mu.Smr.replica smr 0 in
      Sim.Host.pause r0.Mu.Replica.host;
      (* Immediately after the pause, r0 still claims leadership and no
         other replica does: Smr.leader reports it; after detection, both
         r0 (stale) and r1 claim it, so [leader] is None until r0 resumes
         and demotes. *)
      Sim.Engine.sleep e 1_500_000;
      check "two claimants -> no unique leader" true (Mu.Smr.leader smr = None);
      Sim.Host.resume r0.Mu.Replica.host;
      Util.wait_for
        (fun () ->
          match Mu.Smr.leader smr with Some r -> r.Mu.Replica.id = 0 | None -> false)
        e)

let recycling_under_smr_load () =
  let cfg =
    { Mu.Config.default with Mu.Config.log_slots = 256; recycle_slack = 64;
      recycle_interval = 200_000 }
  in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      for _ = 1 to 600 do
        ignore (Mu.Smr.submit smr (Bytes.make 32 'r'))
      done;
      let leader = Option.get (Mu.Smr.leader smr) in
      check "wrapped the log several times" true (Mu.Log.fuo leader.Mu.Replica.log > 512);
      check "recycler kept up" true (leader.Mu.Replica.zeroed_up_to > 256);
      ignore e)

let recycler_respects_unconfirmed_followers () =
  (* Regression: a replica outside the confirmed-followers set (late
     permission ack after a leadership change) must still hold back log
     recycling; otherwise the next leader change copies recycled (empty)
     slots into its log — the kv_failover crash. Repeated fail-overs with
     aggressive recycling under load must never create a hole. *)
  let cfg =
    { Mu.Config.default with Mu.Config.log_slots = 512; recycle_slack = 64;
      recycle_interval = 300_000 }
  in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      for round = 1 to 3 do
        for _ = 1 to 120 do
          ignore (Mu.Smr.submit smr (Bytes.make 32 'z'))
        done;
        let leader = Option.get (Mu.Smr.leader smr) in
        Sim.Host.pause leader.Mu.Replica.host;
        (* Keep the load up during fail-over. *)
        for _ = 1 to 30 do
          ignore (Mu.Smr.submit smr (Bytes.make 32 'z'))
        done;
        Sim.Host.resume leader.Mu.Replica.host;
        Util.wait_for
          (fun () ->
            match Mu.Smr.leader smr with
            | Some r -> not r.Mu.Replica.need_new_followers
            | None -> false)
          e;
        ignore round
      done;
      (* No replica may have an empty slot between its applied index and
         its FUO. *)
      Array.iter
        (fun (r : Mu.Replica.t) ->
          for i = r.Mu.Replica.applied to Mu.Log.fuo r.Mu.Replica.log - 1 do
            check
              (Printf.sprintf "no hole at %d on replica %d" i r.Mu.Replica.id)
              true
              (Mu.Log.read_slot r.Mu.Replica.log i <> None)
          done)
        (Mu.Smr.replicas smr))

let checksum_canary_cluster_works () =
  let cfg = { Mu.Config.default with Mu.Config.checksum_canary = true } in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      for i = 1 to 20 do
        ignore (Mu.Smr.submit smr (Bytes.of_string (string_of_int i)))
      done;
      (* Fail over once under checksum canaries too. *)
      let r0 = Mu.Smr.replica smr 0 in
      Sim.Host.pause r0.Mu.Replica.host;
      ignore (Mu.Smr.submit smr (Bytes.of_string "during"));
      Sim.Host.resume r0.Mu.Replica.host;
      Util.wait_for (fun () -> Mu.Replica.is_leader r0) e;
      ignore (Mu.Smr.submit smr (Bytes.of_string "after"));
      Sim.Engine.sleep e 2_000_000;
      Alcotest.(check (list string))
        "invariants hold" []
        (List.map
           (Fmt.str "%a" Mu.Invariants.pp_violation)
           (Mu.Invariants.check_all (Mu.Smr.replicas smr))))

let sharded_commuting_ops () =
  let e = Util.engine () in
  let per_shard_counts = Array.make 2 0 in
  let s =
    Mu.Sharded.create e Util.default_cal Mu.Config.default ~shards:2
      ~make_app:(fun ~shard ~replica:_ ->
        Mu.Smr.stateless_app (fun _ ->
            per_shard_counts.(shard) <- per_shard_counts.(shard) + 1;
            Bytes.empty))
  in
  Mu.Sharded.start s;
  let ok = ref false in
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      Mu.Sharded.wait_live s;
      (* Same key always lands on the same shard. *)
      let k0 = "alpha" and k1 = "omega" in
      check "routing stable" true
        (Mu.Sharded.shard_of_key s k0 = Mu.Sharded.shard_of_key s k0);
      for _ = 1 to 10 do
        ignore (Mu.Sharded.submit s ~key:k0 (Bytes.of_string "x"));
        ignore (Mu.Sharded.submit s ~key:k1 (Bytes.of_string "y"))
      done;
      Sim.Engine.sleep e 2_000_000;
      (* 20 requests x 3 replicas, minus the per-shard tail entries that
         commit piggybacking holds back at followers. *)
      check "requests applied across the shards" true
        (per_shard_counts.(0) + per_shard_counts.(1) >= 50);
      ok := true;
      Mu.Sharded.stop s;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:120_000_000_000 e;
  check "finished" true !ok

let stop_halts_service () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      ignore (Mu.Smr.submit smr (Bytes.of_string "x"));
      Mu.Smr.stop smr;
      Sim.Engine.sleep e 5_000_000;
      let iv = Mu.Smr.submit_async ~retry:false smr (Bytes.of_string "y") in
      Sim.Engine.sleep e 5_000_000;
      check "no service after stop" false (Sim.Engine.Ivar.is_filled iv))

let suite =
  [
    ("batch roundtrip", `Quick, batch_roundtrip);
    ("empty batch roundtrip", `Quick, empty_batch_roundtrip);
    ("submit gets response", `Quick, submit_gets_response);
    ("submissions execute in order", `Quick, submissions_execute_in_order);
    ("followers apply too", `Quick, followers_apply_too);
    ("batching coalesces", `Quick, batching_coalesces);
    ("pipelining works", `Quick, pipelining_works);
    ("pipelined throughput exceeds serial", `Quick, pipelined_throughput_exceeds_serial);
    ("window trace digests pinned", `Quick, window_trace_digests_pinned);
    ("window ignores stale completion", `Quick, window_ignores_stale_completion);
    ("window requeues aborted fill", `Quick, window_requeues_aborted_fill);
    ("window wakes on request", `Quick, window_wakes_on_request);
    ("window reaps while idle", `Quick, window_reaps_while_idle);
    ("failover under load", `Quick, failover_under_load);
    ("no unique leader during transition", `Quick, no_unique_leader_during_transition);
    ("recycling under smr load", `Quick, recycling_under_smr_load);
    ("recycler respects unconfirmed followers", `Quick, recycler_respects_unconfirmed_followers);
    ("checksum canary cluster works", `Quick, checksum_canary_cluster_works);
    ("sharded commuting ops", `Quick, sharded_commuting_ops);
    ("stop halts service", `Quick, stop_halts_service);
  ]
