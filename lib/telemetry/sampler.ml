(* Virtual-time sampler: snapshots every registered metric into a
   time-series on a fixed simulated-time interval. The driver (usually
   Workload.Experiments.run_sim) owns the cadence: it calls [tick] from
   a fiber that sleeps [interval] virtual nanoseconds between calls, so
   sampling consumes zero virtual time and cannot perturb the measured
   system.

   Experiments build a fresh engine each, so virtual time restarts from
   0 repeatedly within one bench run; [start_epoch] opens a new epoch
   and every sample is tagged with it, keeping per-run timelines
   separate and monotonic.

   Memory is bounded per (series, epoch): when an epoch reaches
   [max_points] stored samples it is compacted by dropping every other
   point and doubling the sampling stride. The compaction is a pure
   function of the tick sequence, so equal-seed runs still export
   byte-identical series. *)

type epoch = {
  eid : int;
  mutable ts : int array;
  mutable vs : float array;
  mutable n : int;
  mutable stride : int;  (* record every stride-th tick *)
  mutable ticks : int;  (* ticks seen by this epoch, recorded or not *)
}

type series = { metric : Registry.metric; mutable epochs : epoch list (* newest first *) }

type subscriber = now:int -> epoch:int -> (Registry.metric * float) list -> unit

type t = {
  reg : Registry.t;
  interval : int;
  max_points : int;
  mutable eid : int;
  tbl : (string, series) Hashtbl.t;
  mutable subs : subscriber list; (* reverse registration order *)
}

let create ?(max_points_per_epoch = 65_536) reg ~interval =
  if interval <= 0 then invalid_arg "Sampler.create: interval must be positive";
  if max_points_per_epoch < 16 then
    invalid_arg "Sampler.create: max_points_per_epoch must be >= 16";
  { reg; interval; max_points = max_points_per_epoch; eid = -1; tbl = Hashtbl.create 64;
    subs = [] }

let subscribe t f = t.subs <- f :: t.subs

let registry t = t.reg
let interval t = t.interval
let start_epoch t = t.eid <- t.eid + 1
let current_epoch t = t.eid

let skey (m : Registry.metric) =
  String.concat "\x00" (m.name :: List.concat_map (fun (k, v) -> [ k; v ]) m.labels)

let value_of (m : Registry.metric) =
  match m.kind with
  | Registry.Counter c -> float_of_int (Registry.Counter.value c)
  | Registry.Gauge g -> float_of_int (Registry.Gauge.value g)
  | Registry.Histogram h -> float_of_int (Hdr.count h)

let fresh_epoch t =
  { eid = t.eid; ts = Array.make 256 0; vs = Array.make 256 0.0; n = 0; stride = 1; ticks = 0 }

let compact ep =
  let half = ep.n / 2 in
  for i = 0 to half - 1 do
    ep.ts.(i) <- ep.ts.(2 * i);
    ep.vs.(i) <- ep.vs.(2 * i)
  done;
  ep.n <- half;
  ep.stride <- ep.stride * 2

let append t ep ~now v =
  if ep.n = Array.length ep.ts then begin
    let cap = 2 * Array.length ep.ts in
    let nts = Array.make cap 0 and nvs = Array.make cap 0.0 in
    Array.blit ep.ts 0 nts 0 ep.n;
    Array.blit ep.vs 0 nvs 0 ep.n;
    ep.ts <- nts;
    ep.vs <- nvs
  end;
  ep.ts.(ep.n) <- now;
  ep.vs.(ep.n) <- v;
  ep.n <- ep.n + 1;
  if ep.n >= t.max_points then compact ep

let tick t ~now =
  if t.eid < 0 then invalid_arg "Sampler.tick: no epoch started";
  (* One registry scan per tick: the (metric, value) snapshot feeds both
     the stored series and every subscriber, so window evaluators (the
     monitor library) reuse the sampler's cadence instead of re-reading
     the registry on their own. *)
  let samples =
    List.map (fun (m : Registry.metric) -> (m, value_of m)) (Registry.metrics t.reg)
  in
  List.iter
    (fun ((m : Registry.metric), v) ->
      let k = skey m in
      let s =
        match Hashtbl.find_opt t.tbl k with
        | Some s -> s
        | None ->
          let s = { metric = m; epochs = [] } in
          Hashtbl.replace t.tbl k s;
          s
      in
      let ep =
        match s.epochs with
        | e :: _ when e.eid = t.eid -> e
        | _ ->
          let e = fresh_epoch t in
          s.epochs <- e :: s.epochs;
          e
      in
      ep.ticks <- ep.ticks + 1;
      if (ep.ticks - 1) mod ep.stride = 0 then append t ep ~now v)
    samples;
  List.iter (fun f -> f ~now ~epoch:t.eid samples) (List.rev t.subs)

let points ep = Array.init ep.n (fun i -> (ep.ts.(i), ep.vs.(i)))

let series t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.tbl []
  |> List.sort (fun a b ->
         match compare a.metric.Registry.name b.metric.Registry.name with
         | 0 -> compare a.metric.Registry.labels b.metric.Registry.labels
         | c -> c)
  |> List.map (fun s ->
         ( s.metric,
           List.rev_map (fun (ep : epoch) -> (ep.eid, points ep)) s.epochs ))
