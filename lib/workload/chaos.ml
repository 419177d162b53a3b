(* Chaos harness: run a (possibly sharded) Mu cluster under an injected
   fault scenario while KV clients record a real-time history of every
   request and reply. Judging the run — model conformance of the replies
   and the Appendix A invariants — is lib/modelcheck's job. *)

type scripted_op = { s_think : int; s_req : int; s_cmd : Apps.Kv_store.command }

type recorded = {
  r_proc : int;
  r_req : int;
  r_invoked : int;
  r_responded : int;
  r_cmd : Apps.Kv_store.command;
  r_reply : Apps.Kv_store.reply option;
}

type outcome = {
  seed : int64;
  n : int;
  scenario : Faults.Scenario.t;
  completed : bool;
  ops : int;
  committed : int;
  record : recorded list;
  violations : Mu.Invariants.violation list;
  rejoins : Mu.Smr.rejoin list;
  shed : int;
  degraded_ns : int;
}

let key_of = function
  | Apps.Kv_store.Get { key } | Apps.Kv_store.Delete { key } -> key
  | Apps.Kv_store.Put { key; _ } -> key

(* The first [count] of a, b, c, ..., z, k26, k27, ... that route to
   [shard]: with one shard, the keys a, b, c. *)
let keys_for ~shards ~shard ~count =
  let acc = ref [] and i = ref 0 in
  while List.length !acc < count do
    let k =
      if !i < 26 then String.make 1 (Char.chr (Char.code 'a' + !i))
      else Printf.sprintf "k%d" !i
    in
    if Mu.Sharded.key_hash k mod shards = shard then acc := k :: !acc;
    incr i
  done;
  Array.of_list (List.rev !acc)

(* A random client's ops: closed-loop Puts/Gets on its shard's keys, drawn
   from the client's own split of the engine PRNG. *)
let random_ops rng ~proc ~ops ~think ~keys =
  let acc = ref [] in
  for i = 1 to ops do
    let key = keys.(Sim.Rng.int rng (Array.length keys)) in
    let s_cmd =
      if Sim.Rng.bool rng then
        Apps.Kv_store.Put { key; value = Printf.sprintf "c%d-%d" proc i }
      else Apps.Kv_store.Get { key }
    in
    acc := { s_think = (if i > 1 then think else 0); s_req = i; s_cmd } :: !acc
  done;
  List.rev !acc

(* One client fiber: submits its ops in turn and records each with its
   invocation/response times and decoded reply. Request ids make retries
   idempotent (the KV app deduplicates), so the at-least-once delivery of
   SMR under leader change stays linearizable. The client_op span labels
   the detached "request" span that [Smr.submit] opens underneath it with
   (proc, req, key, op), so [mu_demo explain] can name the requests caught
   in a fail-over. The cluster runs with no queue bound, so no reply is
   ever shed. *)
let client_fiber e cluster ~proc ~ops ~records ~pending ~on_done =
  Mu.Sharded.wait_live cluster;
  List.iter
    (fun { s_think; s_req; s_cmd } ->
      if s_think > 0 then Sim.Engine.sleep e s_think;
      let key = key_of s_cmd in
      let payload = Apps.Kv_store.encode_command ~client:proc ~req_id:s_req s_cmd in
      let invoked = Sim.Engine.now e in
      Hashtbl.replace pending proc (invoked, s_req, s_cmd);
      let reply =
        Sim.Engine.span_scope e
          ~args:
            [
              ("proc", string_of_int proc);
              ("req", string_of_int s_req);
              ("key", key);
              ( "op",
                match s_cmd with
                | Apps.Kv_store.Put _ -> "put"
                | Apps.Kv_store.Get _ -> "get"
                | Apps.Kv_store.Delete _ -> "delete" );
            ]
          "client_op"
          (fun () -> Mu.Sharded.submit cluster ~key payload)
      in
      let responded = Sim.Engine.now e in
      Hashtbl.remove pending proc;
      records :=
        {
          r_proc = proc;
          r_req = s_req;
          r_invoked = invoked;
          r_responded = responded;
          r_cmd = s_cmd;
          r_reply = Apps.Kv_store.decode_reply reply;
        }
        :: !records)
    ops;
  on_done ()

let run ?trace ?metrics ?on_engine ?(provenance = false) ?(shards = 1) ?(clients = 4)
    ?(ops_per_client = 25) ?(think = 0) ?(horizon = 2_000_000_000)
    ?(durable = true) ?script ~seed ~n scenario =
  let e =
    Experiments.engine
      { Experiments.default_setup with seed; trace; metrics; provenance; on_engine }
  in
  let cfg =
    {
      Mu.Config.default with
      Mu.Config.n;
      log_slots = 4096;
      recycle_interval = 1_000_000;
      durable_state = durable;
    }
  in
  let cluster =
    Mu.Sharded.create e Sim.Calibration.default cfg ~shards
      ~make_app:(fun ~shard:_ ~replica:_ -> Apps.Kv_store.smr_app ())
  in
  Mu.Sharded.start cluster;
  (* Scenario host ids are shard 0's replica ids. Host lookups re-resolve
     through the cluster on every event: a restart replaces the replica
     (and its host) under the same id, and later faults must land on the
     new incarnation. *)
  let target () = Mu.Sharded.shard cluster 0 in
  Faults.Injector.install e
    ~hosts:(fun pid ->
      let smr = target () in
      if pid >= 0 && pid < Array.length (Mu.Smr.replicas smr) then
        Some (Mu.Smr.replica smr pid).Mu.Replica.host
      else None)
    ~restart:(fun pid -> Mu.Smr.restart_replica (target ()) ~id:pid)
    scenario;
  let records = ref [] in
  let pending = Hashtbl.create 8 in
  let nclients = match script with Some ss -> List.length ss | None -> clients in
  let remaining = ref nclients in
  let completed = ref false in
  let on_done () =
    decr remaining;
    if !remaining = 0 then begin
      (* Quiesce: run past the last scheduled restart (clients
         often finish before a late restart fires), give any
         rejoin pipeline a bounded window to reach log parity,
         then let stragglers (replayers, recycler, elections
         after the last fault) settle before the state checks.
         Only restarts extend the run — they are the one fault
         whose effect (a completed rejoin) the outcome reports. *)
      let restart_horizon =
        List.fold_left
          (fun a ev ->
            match ev.Faults.Scenario.action with
            | Faults.Scenario.Restart _ -> max a ev.Faults.Scenario.at
            | _ -> a)
          0 scenario.Faults.Scenario.events
      in
      if Sim.Engine.now e < restart_horizon + 1_000 then
        Sim.Engine.sleep e (restart_horizon + 1_000 - Sim.Engine.now e);
      let budget = ref 100 in
      while Mu.Smr.restarts_in_flight (target ()) > 0 && !budget > 0 do
        decr budget;
        Sim.Engine.sleep e 1_000_000
      done;
      Sim.Engine.sleep e 5_000_000;
      completed := true;
      Mu.Sharded.stop cluster;
      Sim.Engine.halt e
    end
  in
  (* Client i is proc i+1. A scripted client replays its list verbatim and
     splits no PRNG; a random client draws its ops from its own split. *)
  for i = 0 to nclients - 1 do
    let proc = i + 1 in
    Sim.Engine.spawn e
      ~name:(Printf.sprintf "chaos-client-%d" proc)
      (fun () ->
        let ops =
          match script with
          | Some scripts -> List.nth scripts i
          | None ->
            let rng = Sim.Rng.split (Sim.Engine.rng e) in
            let keys = keys_for ~shards ~shard:(i mod shards) ~count:3 in
            random_ops rng ~proc ~ops:ops_per_client ~think ~keys
        in
        client_fiber e cluster ~proc ~ops ~records ~pending ~on_done)
  done;
  Sim.Engine.run ~until:horizon e;
  (* A run that stalled (e.g. a scenario that left no majority) still gets
     checked for safety: ops that never responded stay in the record with
     an open interval — a write may or may not have taken effect. *)
  let record =
    Hashtbl.fold
      (fun proc (invoked, req, cmd) acc ->
        {
          r_proc = proc;
          r_req = req;
          r_invoked = invoked;
          r_responded = max_int;
          r_cmd = cmd;
          r_reply = None;
        }
        :: acc)
      pending !records
    |> List.sort (fun a b ->
           compare (a.r_invoked, a.r_proc, a.r_req) (b.r_invoked, b.r_proc, b.r_req))
  in
  (* Re-read the replica arrays: restarts swap entries in place, and the
     safety checks must see the final incarnations. *)
  let groups = List.init shards (Mu.Sharded.shard cluster) in
  let replicas = Array.concat (List.map Mu.Smr.replicas groups) in
  let sum f = List.fold_left (fun acc smr -> acc + f smr) 0 groups in
  {
    seed;
    n;
    scenario;
    completed = !completed;
    (* Unanswered reads observed nothing and are not part of the history. *)
    ops =
      List.length
        (List.filter
           (fun r ->
             match r.r_cmd with
             | Apps.Kv_store.Get _ -> r.r_responded <> max_int
             | _ -> true)
           record);
    committed =
      Array.fold_left (fun acc r -> max acc (Mu.Log.fuo r.Mu.Replica.log)) 0 replicas;
    record;
    violations =
      List.concat_map (fun smr -> Mu.Invariants.check_all (Mu.Smr.replicas smr)) groups;
    rejoins = List.concat_map Mu.Smr.rejoins groups;
    shed = sum Mu.Smr.shed_requests;
    degraded_ns = sum Mu.Smr.degraded_total_ns;
  }
