(** Chaos runner: Mu under injected faults, with every reply recorded.

    Each run builds a fresh cluster of [shards] groups of [n] replicas
    ({!Mu.Sharded}) serving the KV application, installs a
    {!Faults.Scenario.t} over shard 0, and drives closed-loop clients
    whose operations are recorded as a real-time history. The run itself
    judges nothing: {!Modelcheck.Conformance.judge} checks the recorded
    replies against the pure KV model and reads the Appendix A invariant
    violations collected here ({!Mu.Invariants.check_all}) — the paper's
    §2.2 claims, checked empirically under every scenario the generator
    can produce.

    Determinism: same [seed] + same scenario ⇒ an identical run, to the
    byte, including any attached trace — which makes a (seed, n,
    scenario) repro a complete reproduction of a failure. *)

(** {1 Histories}

    Clients either draw their ops from a seeded random stream or replay
    a {e generated} history (the modelcheck conformance runner): one op
    list per client, each op carrying its request id and a think gap.
    Either way every response is recorded verbatim so it can be checked
    against the pure reference model. *)

type scripted_op = {
  s_think : int;  (** Virtual-ns pause before submitting this op. *)
  s_req : int;  (** Request id (unique per client; dedup identity). *)
  s_cmd : Apps.Kv_store.command;
}

type recorded = {
  r_proc : int;
  r_req : int;
  r_invoked : int;
  r_responded : int;  (** [max_int] = never answered (open interval). *)
  r_cmd : Apps.Kv_store.command;
  r_reply : Apps.Kv_store.reply option;  (** [None] = unanswered. *)
}

type outcome = {
  seed : int64;
  n : int;
  scenario : Faults.Scenario.t;
  completed : bool;
      (** All client operations finished before the safety horizon. A
          stall means the scenario (or a bug) cost the cluster liveness;
          safety is still checked. *)
  ops : int;  (** Operations in the history: all but unanswered reads. *)
  committed : int;  (** Highest FUO reached by any replica. *)
  record : recorded list;
      (** Every op, answered or pending, with its observed reply, sorted
          by (invocation, proc, req). *)
  violations : Mu.Invariants.violation list;  (** Over every shard. *)
  rejoins : Mu.Smr.rejoin list;
      (** Completed kill→restart→rejoin pipelines (oldest first). *)
  shed : int;  (** Requests shed by a degraded leader's queue bound. *)
  degraded_ns : int;  (** Total quorum-lost window duration. *)
}

val run :
  ?trace:Trace.Tracer.t ->
  ?metrics:Telemetry.Sampler.t ->
  ?on_engine:(Sim.Engine.t -> unit) ->
  ?provenance:bool ->
  ?shards:int ->
  ?clients:int ->
  ?ops_per_client:int ->
  ?think:int ->
  ?horizon:int ->
  ?durable:bool ->
  ?script:scripted_op list list ->
  seed:int64 ->
  n:int ->
  Faults.Scenario.t ->
  outcome
(** One chaos run. [shards] (default 1) independent groups share the
    engine; scenario host ids address shard 0's replicas, and client i
    (proc i+1, [clients] default 4) draws [ops_per_client] (default 25)
    random Puts/Gets over {!keys_for} shard [i mod shards]. [horizon]
    (default 2 virtual seconds) bounds a stalled run; ops still pending
    at the horizon stay in the record with an open response interval,
    so a write that took effect but never answered cannot fake a
    violation. [trace], [metrics], [provenance] and [on_engine] build
    the engine exactly as {!Experiments.engine} does; none consumes
    PRNG, so the protocol schedule is unchanged. With [provenance] each
    client op wraps its request span with (proc, req, key, op) labels.
    [think] (default 0) inserts a fixed virtual-ns pause between a
    client's operations — use it to stretch a small (checker-friendly)
    history across a scenario's fault window instead of piling on
    operations. [durable] (default true) backs each replica's log with
    simulated NVM so [restart] events can recover it. [script]
    replaces the random clients with one client per listed op list,
    replayed verbatim; [clients]/[ops_per_client]/[think] are then
    ignored and no client splits the engine PRNG. *)

val keys_for : shards:int -> shard:int -> count:int -> string array
(** The first [count] of the keys a, b, …, z, k26, k27, … that route to
    [shard] under {!Mu.Sharded.key_hash} with [shards] shards — with one
    shard, [[|"a"; "b"; "c"|]] for [count = 3]. *)
