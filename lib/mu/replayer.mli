(** The replayer: the follower role of the replication plane (§3.1, §4.2).

    Followers are silent — they only watch their local log. The replayer
    fiber:

    - validates new entries via the canary byte before trusting them
      (§4.2 "Replayer");
    - advances the local FUO by {e commit piggybacking} ({!Log.advance_fuo}):
      entry [i] is known committed once entry [i+1] exists, because the
      leader starts index [i+1] only after [i] is committed (§4.2
      "Followers commit in background", Listing 7) — or earlier, when a
      new leader bumps the FUO directly during its update-followers step;
    - injects committed entries into the application and publishes the new
      log head for the recycler (§5.3).

    The FUO self-advance runs only while the replica is a follower; a
    leader manages its own FUO inside propose. Application of committed
    entries is shared with the leader path through
    {!Replica.apply_committed}, so an entry is never injected twice. The
    index rule itself is the log's; this module only schedules it: a
    round that moves nothing idles the fiber for 1 µs. *)

val start : Replica.t -> unit
(** Spawn the replayer fiber. *)
