(* Observers: the engine's one instrumentation seam besides the probe
   sink. Every subscriber is one of these records; the engine keeps them
   in a list and each hook site fans out to it, one list check when
   nobody is subscribed. Subscribers that {e attribute} (added through
   [set_profiler]) also get the interval between consecutive events:
   [schedule] wraps the thunk with a closure that carries (pid, fiber,
   open span stack), the run loop announces each clock advance through
   [prof_event], and the wrapper claims the accumulated interval through
   [prof_attr] before running the real thunk. The field names predate
   the list (one profiler slot) and are kept because external harnesses
   build this record literally. *)
type profiler = {
  prof_event : now:int -> unit;
      (* run loop: clock advanced to [now], a thunk is about to fire *)
  prof_attr : pid:int -> tid:int -> spans:int list -> unit;
      (* claim the pending interval for this identity (innermost span first) *)
  prof_fiber : tid:int -> pid:int -> name:string -> unit;
  prof_span : id:int -> name:string -> unit;
  prof_host : pid:int -> name:string -> unit;
}

(* Simulator self-cost sampling: wall-clock spent in the event queue,
   stride-sampled so a profiled run stays close to full speed. Queue
   push/pop are allocation-free, so only wall time is measured here.
   Wall-clock never feeds the virtual clock, so sampling cannot perturb
   the simulation — it only slows it. *)
type selfcost = {
  sc_clock : unit -> float;
  sc_stride : int;
  sc_bias : float; (* wall seconds an empty clock-pair measurement costs *)
  mutable sc_arm : int; (* countdown to the next measured op *)
  mutable sc_queue_ops : int; (* all queue ops (push + pop) *)
  mutable sc_queue_sampled : int; (* ops actually measured *)
  mutable sc_queue_wall : float; (* wall seconds over the sampled ops *)
}

(* A queue op costs tens of ns; the clock pair around it can cost as
   much. Calibrate the empty-measurement floor and subtract it from
   every sample, or the extrapolation charges the clock to the queue. *)
let selfcost_calibrate clock =
  let best = ref infinity in
  for _ = 1 to 128 do
    let c0 = clock () in
    let d = clock () -. c0 in
    if d < !best then best := d
  done;
  !best

let selfcost_create ?(stride = 64) ~clock () =
  if stride <= 0 then invalid_arg "Engine.selfcost_create: stride must be positive";
  {
    sc_clock = clock;
    sc_stride = stride;
    sc_bias = selfcost_calibrate clock;
    sc_arm = stride;
    sc_queue_ops = 0;
    sc_queue_sampled = 0;
    sc_queue_wall = 0.0;
  }

let selfcost_queue sc = (sc.sc_queue_ops, sc.sc_queue_sampled, sc.sc_queue_wall)

(* Count one queue op; [true] when it is the one in [sc_stride] to time. *)
let sc_due sc =
  sc.sc_queue_ops <- sc.sc_queue_ops + 1;
  sc.sc_arm <- sc.sc_arm - 1;
  if sc.sc_arm > 0 then false
  else begin
    sc.sc_arm <- sc.sc_stride;
    true
  end

(* Charge the wall time since [c0], less the calibrated clock cost. *)
let sc_charge sc c0 =
  sc.sc_queue_wall <- sc.sc_queue_wall +. Float.max 0.0 (sc.sc_clock () -. c0 -. sc.sc_bias);
  sc.sc_queue_sampled <- sc.sc_queue_sampled + 1

type t = {
  mutable now : int;
  mutable seq : int;
  events : (unit -> unit) Wheel.t;
  root_rng : Rng.t;
  mutable halted : bool;
  mutable running : bool;
  probe : Probe.t;
  fabric : Fabric.t;
  nvm : Nvm.t;
  mutable next_fiber : int;
  mutable cur_fiber : int;
  mutable cur_pid : int;
  (* Provenance: per-request causal spans. Off by default; every span_*
     call below is a single bool check until [set_provenance] opts in AND
     a probe sink or an attributing observer is installed, so fault-free
     runs with provenance off emit byte-identical traces and consume the
     same PRNG stream. *)
  mutable prov : bool;
  mutable next_span : int;
  span_stacks : (int, int list ref) Hashtbl.t; (* fiber id -> open span stack *)
  mutable reg : Telemetry.Registry.t option;
  (* Observers in subscription order, and the subset that attributes
     intervals (the only ones the schedule-time wrap and span
     allocation are switched on for). Both empty by default. *)
  mutable observers : profiler list;
  mutable attributing : profiler list;
  mutable selfcost : selfcost option;
}

exception Fiber_crash of string * exn

let () =
  Printexc.register_printer (function
    | Fiber_crash (name, exn) ->
      Some (Printf.sprintf "Fiber_crash(%s: %s)" name (Printexc.to_string exn))
    | _ -> None)

let create ?(seed = 1L) () =
  {
    now = 0;
    seq = 0;
    events = Wheel.create ();
    root_rng = Rng.create seed;
    halted = false;
    running = false;
    probe = Probe.create ();
    fabric = Fabric.create ();
    nvm = Nvm.create ();
    next_fiber = 0;
    cur_fiber = 0;
    cur_pid = -1;
    prov = false;
    next_span = 0;
    span_stacks = Hashtbl.create 64;
    reg = None;
    observers = [];
    attributing = [];
    selfcost = None;
  }

let now t = t.now
let rng t = t.root_rng
let fabric t = t.fabric
let nvm t = t.nvm

(* Observers ------------------------------------------------------------ *)

let subscribe t p = t.observers <- t.observers @ [ p ]

let set_profiler t p =
  subscribe t p;
  t.attributing <- t.attributing @ [ p ]

let clear_profiler t p =
  t.observers <- List.filter (fun q -> q != p) t.observers;
  t.attributing <- List.filter (fun q -> q != p) t.attributing

let profiled t = t.attributing <> []
let set_selfcost t sc = t.selfcost <- Some sc

(* Per-event fan-out. Direct recursion rather than [List.iter] over a
   closure, so a notification allocates nothing; the rarer hooks (spawn,
   span id, host name) use [List.iter] behind an emptiness check. *)
let rec on_event obs now =
  match obs with
  | [] -> ()
  | p :: r ->
    p.prof_event ~now;
    on_event r now

let rec on_attr obs ~pid ~tid ~spans =
  match obs with
  | [] -> ()
  | p :: r ->
    p.prof_attr ~pid ~tid ~spans;
    on_attr r ~pid ~tid ~spans

(* Telemetry is a non-attributing observer: it counts events and fibers
   and samples the queue shape on every event, but never claims an
   interval, so it neither wraps scheduled thunks nor switches on span
   allocation. Handles are resolved once, here. *)
let set_metrics t reg =
  if t.reg <> None then invalid_arg "Engine.set_metrics: a registry is already attached";
  t.reg <- Some reg;
  let module R = Telemetry.Registry in
  let events = R.counter reg ~help:"Events executed by the engine" "sim_events_total" in
  let depth = R.gauge reg ~help:"Pending events in the queue" "sim_event_queue_depth" in
  let fibers = R.counter reg ~help:"Fibers spawned" "sim_fibers_spawned_total" in
  let level i =
    R.gauge reg ~help:"Events stored at this wheel level"
      ~labels:[ ("level", string_of_int i) ]
      "sim_wheel_level_events"
  in
  let l0 = level 0 in
  let l1 = level 1 in
  let l2 = level 2 in
  let l3 = level 3 in
  let overflow =
    R.gauge reg ~help:"Events beyond the wheel horizon" "sim_wheel_overflow_events"
  in
  let past = R.gauge reg ~help:"Events behind the wheel clock" "sim_wheel_past_events" in
  let q = t.events in
  subscribe t
    {
      prof_event =
        (fun ~now:_ ->
          R.Counter.inc events;
          R.Gauge.set depth (Wheel.length q);
          R.Gauge.set l0 (Wheel.level_events q 0);
          R.Gauge.set l1 (Wheel.level_events q 1);
          R.Gauge.set l2 (Wheel.level_events q 2);
          R.Gauge.set l3 (Wheel.level_events q 3);
          R.Gauge.set overflow (Wheel.overflow_size q);
          R.Gauge.set past (Wheel.past_size q));
      prof_attr = (fun ~pid:_ ~tid:_ ~spans:_ -> ());
      prof_fiber = (fun ~tid:_ ~pid:_ ~name:_ -> R.Counter.inc fibers);
      prof_span = (fun ~id:_ ~name:_ -> ());
      prof_host = (fun ~pid:_ ~name:_ -> ());
    }

let metrics t = t.reg

(* Tracing ------------------------------------------------------------- *)

let probe t = t.probe
let traced t = Probe.enabled t.probe

let emit t ~kind ?(cat = "sim") ?pid ?tid ?(id = 0) ?(args = []) name =
  match Probe.sink t.probe with
  | None -> ()
  | Some f ->
    f
      {
        Probe.ts = t.now;
        kind;
        name;
        cat;
        pid = (match pid with Some p -> p | None -> t.cur_pid);
        tid = (match tid with Some x -> x | None -> t.cur_fiber);
        id;
        args;
      }

let trace_instant t ?cat ?pid ?tid ?args name =
  emit t ~kind:Probe.Instant ?cat ?pid ?tid ?args name

let trace_begin t ?cat ?pid ?tid ?args name =
  emit t ~kind:Probe.Span_begin ?cat ?pid ?tid ?args name

let trace_end t ?cat ?pid ?tid ?args name =
  emit t ~kind:Probe.Span_end ?cat ?pid ?tid ?args name

let trace_async_begin t ?cat ?pid ?args ~id name =
  emit t ~kind:Probe.Async_begin ?cat ?pid ~id ?args name

let trace_async_end t ?cat ?pid ?args ~id name =
  emit t ~kind:Probe.Async_end ?cat ?pid ~id ?args name

(* The [~args] list (and its [string_of_int]) must only be built once a
   sink is known to exist — counters sit on the commit hot path and an
   untraced run must not allocate here. *)
let trace_counter t ?cat ?pid name ~value =
  if Probe.enabled t.probe then
    emit t ~kind:Probe.Counter ?cat ?pid ~args:[ ("value", string_of_int value) ] name

let trace_meta_process t ~pid name =
  (match t.observers with
  | [] -> ()
  | obs -> List.iter (fun p -> p.prof_host ~pid ~name) obs);
  emit t ~kind:Probe.Meta_process ~pid ~tid:0 name
let trace_meta_thread t ~pid ~tid name = emit t ~kind:Probe.Meta_thread ~pid ~tid name

let trace_span t ?cat ?pid ?args name f =
  if not (Probe.enabled t.probe) then f ()
  else begin
    trace_begin t ?cat ?pid ?args name;
    Fun.protect ~finally:(fun () -> trace_end t ?cat ?pid name) f
  end

(* Provenance -------------------------------------------------------------

   Spans are recorded as [Instant] events in cat "prov" ("span_begin" /
   "span_end" / "point" / "edge") so the existing Breakdown accumulator —
   which ignores instants — is unaffected, and the span tree is rebuilt
   offline by the [provenance] library from the trace ring. Span ids are
   allocated only while provenance is on; allocation order follows the
   (deterministic) event order, so equal seeds yield equal ids. *)

let set_provenance t on = t.prov <- on

(* An attributing observer also consumes span stacks (they are the third
   component of its attribution identity), so provenance machinery runs
   for it even with no probe sink installed — span ids are allocated in
   deterministic event order and touch no PRNG, and [emit] without a
   sink is a no-op, so this changes no trace bytes. *)
let provenance_on t = t.prov && (Probe.enabled t.probe || t.attributing <> [])

let span_stack t =
  match Hashtbl.find_opt t.span_stacks t.cur_fiber with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.replace t.span_stacks t.cur_fiber s;
    s

let current_span t =
  match Hashtbl.find_opt t.span_stacks t.cur_fiber with
  | Some { contents = s :: _ } -> s
  | _ -> 0

let span_open t ?pid ?parent ?(args = []) name =
  if not (provenance_on t) then 0
  else begin
    t.next_span <- t.next_span + 1;
    let id = t.next_span in
    (match t.observers with
    | [] -> ()
    | obs -> List.iter (fun p -> p.prof_span ~id ~name) obs);
    let parent = match parent with Some p -> p | None -> current_span t in
    emit t ~kind:Probe.Instant ~cat:"prov" ?pid
      ~args:
        (("span", string_of_int id)
        :: ("parent", string_of_int parent)
        :: ("name", name) :: args)
      "span_begin";
    id
  end

let span_close t ?pid ?(args = []) id =
  if provenance_on t && id <> 0 then
    emit t ~kind:Probe.Instant ~cat:"prov" ?pid
      ~args:(("span", string_of_int id) :: args)
      "span_end"

let span_point t ?pid ?(args = []) ~span name =
  if provenance_on t && span <> 0 then
    emit t ~kind:Probe.Instant ~cat:"prov" ?pid
      ~args:(("span", string_of_int span) :: ("name", name) :: args)
      "point"

let span_edge t ?pid ~kind ~src ~dst () =
  if provenance_on t && src <> 0 && dst <> 0 then
    emit t ~kind:Probe.Instant ~cat:"prov" ?pid
      ~args:
        [ ("src", string_of_int src); ("dst", string_of_int dst); ("kind", kind) ]
      "edge"

let with_span t ?pid ?args name f =
  if not (provenance_on t) then f 0
  else begin
    (* Stack-scoped spans are tagged sync=1: they nest strictly within the
       opening fiber, so the analyzer can partition a parent's duration
       over them. Detached [span_open] spans (RDMA posts, requests) may
       overlap siblings and are excluded from that partition. *)
    let args = ("sync", "1") :: Option.value args ~default:[] in
    let id = span_open t ?pid ~args name in
    let stack = span_stack t in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (match !stack with s :: rest when s = id -> stack := rest | _ -> ());
        (* The finally runs in the opening fiber's segment, so
           [t.cur_fiber] is the key [span_stack] registered the ref
           under; dropping the entry when the stack empties keeps the
           table bounded by fibers with an open span rather than by
           every fiber that ever opened one. *)
        if !stack = [] then Hashtbl.remove t.span_stacks t.cur_fiber;
        span_close t ?pid id)
      (fun () -> f id)
  end

let span_stacks_live t = Hashtbl.length t.span_stacks

(* Short-circuit before wrapping [f]: the closure below must not be
   built when provenance is off — this runs on the fiber hot path. *)
let span_scope t ?pid ?args name f =
  if not (provenance_on t) then f () else with_span t ?pid ?args name (fun _ -> f ())

(* Profiling wrap: capture the scheduling identity (host, fiber, open
   span stack — an immutable list snapshot) and claim the inter-event
   interval for it just before the real thunk runs. Attribution at
   schedule time is what makes exclusive times exact: virtual time
   elapses *between* events, and the interval ending at this event is
   precisely the wait this identity asked for (a sleep, an RDMA delay,
   a timer). The subscriber list is captured with the identity, so an
   observer subscribed later never claims an interval it did not see
   begin. *)
let[@inline never] prof_wrap t subs thunk =
  let pid = t.cur_pid and tid = t.cur_fiber in
  let spans =
    match Hashtbl.find_opt t.span_stacks t.cur_fiber with Some s -> !s | None -> []
  in
  fun () ->
    on_attr subs ~pid ~tid ~spans;
    thunk ()

let schedule t ~at thunk =
  let at = if at < t.now then t.now else at in
  t.seq <- t.seq + 1;
  let thunk = match t.attributing with [] -> thunk | subs -> prof_wrap t subs thunk in
  match t.selfcost with
  | Some sc when sc_due sc ->
    let c0 = sc.sc_clock () in
    Wheel.push t.events ~key:at ~seq:t.seq thunk;
    sc_charge sc c0
  | _ -> Wheel.push t.events ~key:at ~seq:t.seq thunk

let schedule_after t delay thunk = schedule t ~at:(t.now + delay) thunk
let halt t = t.halted <- true

(* Fibers -------------------------------------------------------------- *)

type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Sleep : int -> unit Effect.t

let suspend register = Effect.perform (Suspend register)

let spawn t ?(name = "fiber") ?(pid = -1) f =
  t.next_fiber <- t.next_fiber + 1;
  let fid = t.next_fiber in
  (match t.observers with
  | [] -> ()
  | obs -> List.iter (fun p -> p.prof_fiber ~tid:fid ~pid ~name) obs);
  if traced t then begin
    trace_meta_thread t ~pid ~tid:fid name;
    trace_instant t ~pid ~tid:fid ~args:[ ("name", name) ] "fiber_spawn"
  end;
  (* Fiber identity is tracked across suspensions so probe events emitted
     from inside a segment carry the right (pid, tid) by default. A segment
     runs to completion before any other event fires, so save/restore
     around each segment is exact; the restore is inlined (rather than a
     [Fun.protect ~finally] pair) so a resume costs one event closure and
     nothing else. *)
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> ());
      exnc = (fun exn -> raise (Fiber_crash (name, exn)));
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Sleep d ->
            (* [sleep] keeps the same two-event shape as the generic path
               below — a timer event that then re-queues the continuation
               behind everything already due at the wake instant — so the
               event sequence (and therefore any same-seed trace) is
               byte-identical to the [suspend]-based implementation it
               replaces. What it saves is the register/resume closure
               pair and the one-shot guard per call. *)
            Some
              (fun (k : (b, _) Effect.Deep.continuation) ->
                if traced t then trace_instant t "fiber_park";
                schedule t ~at:(t.now + d) (fun () ->
                    schedule t ~at:t.now (fun () ->
                        t.cur_fiber <- fid;
                        t.cur_pid <- pid;
                        match Effect.Deep.continue k () with
                        | () ->
                          t.cur_fiber <- 0;
                          t.cur_pid <- -1
                        | exception e ->
                          t.cur_fiber <- 0;
                          t.cur_pid <- -1;
                          raise e)))
          | Suspend register ->
            Some
              (fun (k : (b, _) Effect.Deep.continuation) ->
                if traced t then trace_instant t "fiber_park";
                let resumed = ref false in
                let resume v =
                  if !resumed then invalid_arg "Engine: fiber resumed twice";
                  resumed := true;
                  schedule t ~at:t.now (fun () ->
                      t.cur_fiber <- fid;
                      t.cur_pid <- pid;
                      match Effect.Deep.continue k v with
                      | () ->
                        t.cur_fiber <- 0;
                        t.cur_pid <- -1
                      | exception e ->
                        t.cur_fiber <- 0;
                        t.cur_pid <- -1;
                        raise e)
                in
                register resume)
          | _ -> None);
    }
  in
  schedule t ~at:t.now (fun () ->
      t.cur_fiber <- fid;
      t.cur_pid <- pid;
      match Effect.Deep.match_with f () handler with
      | () ->
        t.cur_fiber <- 0;
        t.cur_pid <- -1
      | exception e ->
        t.cur_fiber <- 0;
        t.cur_pid <- -1;
        raise e)

let sleep (_ : t) delay = Effect.perform (Sleep delay)
let yield t = sleep t 0

let run ?until t =
  if t.running then invalid_arg "Engine.run: already running";
  t.running <- true;
  t.halted <- false;
  let limit = match until with None -> max_int | Some u -> u in
  let rec loop () =
    if not t.halted then begin
      let at = Wheel.next_key t.events in
      if at = max_int then () (* queue drained *)
      else if at > limit then t.now <- limit
      else begin
        let thunk =
          match t.selfcost with
          | Some sc when sc_due sc ->
            let c0 = sc.sc_clock () in
            let th = Wheel.pop_exn t.events in
            sc_charge sc c0;
            th
          | _ -> Wheel.pop_exn t.events
        in
        t.now <- at;
        on_event t.observers at;
        thunk ();
        loop ()
      end
    end
  in
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      loop ();
      (* [run ~until] returning normally means the engine observed all of
         virtual time up to [limit]; advance the clock even when the queue
         drained early so back-to-back [run ~until] calls see a consistent
         monotone clock. A {!halt}ed run stops at the halting event's
         time. *)
      if (not t.halted) && limit <> max_int && t.now < limit then t.now <- limit)

(* Ivar ----------------------------------------------------------------- *)

module Ivar = struct
  type 'a state = Empty of ('a -> unit) list | Full of 'a
  type 'a ivar = { mutable state : 'a state }

  let create (_ : t) = { state = Empty [] }

  let try_fill iv v =
    match iv.state with
    | Full _ -> false
    | Empty waiters ->
      iv.state <- Full v;
      List.iter (fun w -> w v) (List.rev waiters);
      true

  let fill iv v = if not (try_fill iv v) then invalid_arg "Ivar.fill: already filled"

  let read iv =
    match iv.state with
    | Full v -> v
    | Empty _ ->
      suspend (fun resume ->
          match iv.state with
          | Full v -> resume v
          | Empty waiters -> iv.state <- Empty (resume :: waiters))

  let peek iv = match iv.state with Full v -> Some v | Empty _ -> None
  let is_filled iv = match iv.state with Full _ -> true | Empty _ -> false
end

(* Chan ----------------------------------------------------------------- *)

module Chan = struct
  (* A waiter is "done" once either a value was delivered to it or its
     timeout fired; both paths race and the flag makes them one-shot.

     Cells are mutable and recycled through a per-channel free list so a
     steady-state recv/send (or recv_timeout/send) cycle reuses one cell
     instead of allocating a record plus a [Queue] node each time. The
     waiter queue is an intrusive FIFO threaded through [next], with a
     per-channel sentinel [nil] standing for both "end of list" and
     "empty free list". Recycling discipline: a cell goes back on the
     free list only once nothing else can reach it — on dequeue for
     finished (timed-out) cells, and at the timer for cells whose value
     arrived before the timeout (the timer closure is the last reference
     then). A timed-out cell parked in the waiter queue is reclaimed by
     the next [wake_one] that walks past it. *)
  type 'a waiter = {
    mutable finished : bool;
    mutable has_timer : bool;
    mutable deliver : 'a -> unit;
    mutable next : 'a waiter;
  }

  type 'a chan = {
    engine : t;
    items : 'a Queue.t;
    nil : 'a waiter;
    mutable w_head : 'a waiter;
    mutable w_tail : 'a waiter;
    mutable free : 'a waiter;
  }

  let create engine =
    let rec nil = { finished = true; has_timer = false; deliver = ignore; next = nil } in
    { engine; items = Queue.create (); nil; w_head = nil; w_tail = nil; free = nil }

  let enqueue_waiter c w =
    w.next <- c.nil;
    if c.w_head == c.nil then c.w_head <- w else c.w_tail.next <- w;
    c.w_tail <- w

  (* Returns [c.nil] when no waiter is queued. *)
  let dequeue_waiter c =
    let w = c.w_head in
    if w != c.nil then begin
      c.w_head <- w.next;
      if c.w_head == c.nil then c.w_tail <- c.nil;
      w.next <- c.nil
    end;
    w

  let recycle c w =
    w.deliver <- ignore;
    (* drop the continuation *)
    w.has_timer <- false;
    w.next <- c.free;
    c.free <- w

  let alloc_waiter c ~has_timer deliver =
    let w = c.free in
    if w == c.nil then { finished = false; has_timer; deliver; next = c.nil }
    else begin
      c.free <- w.next;
      w.next <- c.nil;
      w.finished <- false;
      w.has_timer <- has_timer;
      w.deliver <- deliver;
      w
    end

  let rec wake_one c v =
    let w = dequeue_waiter c in
    if w == c.nil then Queue.push v c.items
    else if w.finished then begin
      (* Timed out earlier: its timer already fired, and it just left the
         waiter queue, so nothing references it any more. *)
      recycle c w;
      wake_one c v
    end
    else begin
      w.finished <- true;
      let deliver = w.deliver in
      (* A cell with a pending timer is still referenced by the timer
         closure; the timer recycles it when it fires. *)
      if not w.has_timer then recycle c w;
      deliver v
    end

  let send c v = wake_one c v

  let recv c =
    match Queue.take_opt c.items with
    | Some v -> v
    | None -> suspend (fun resume -> enqueue_waiter c (alloc_waiter c ~has_timer:false resume))

  let recv_timeout c timeout =
    match Queue.take_opt c.items with
    | Some v -> Some v
    | None ->
      suspend (fun resume ->
          let w = alloc_waiter c ~has_timer:true (fun v -> resume (Some v)) in
          enqueue_waiter c w;
          schedule_after c.engine timeout (fun () ->
              if w.finished then recycle c w (* value won the race; timer owns the cell *)
              else begin
                w.finished <- true;
                resume None
              end))

  let poll c = Queue.take_opt c.items
  let length c = Queue.length c.items
end
