(* Follower log-poll period when idle, ns. *)
let poll_interval = 1_000

let start t =
  Sim.Host.spawn t.Replica.host ~name:"replayer" (fun () ->
      let rec loop () =
        if t.Replica.stop || t.Replica.removed then ()
        else begin
          let advanced =
            if t.Replica.role = Replica.Follower then Log.advance_fuo t.Replica.log
            else false
          in
          let before = t.Replica.applied in
          Replica.apply_committed t;
          let progressed = advanced || t.Replica.applied > before in
          if progressed then Sim.Host.check t.Replica.host
          else Sim.Host.idle t.Replica.host poll_interval;
          loop ()
        end
      in
      loop ())
