(* Whole-run virtual-time profiler (domain 1 of DESIGN §18).

   Rides the engine's profiler hooks: the interval between consecutive
   events is attributed to the identity that scheduled the
   interval-ending event — (host, fiber, open provenance-span stack)
   captured inside [Engine.schedule]. Each interval lands in exactly
   one bucket, so bucket values are *exclusive* virtual nanoseconds and
   their sum (plus the idle bucket) equals the run's span to the
   nanosecond: integers in, integers out, no sampling.

   Determinism: attribution consumes no PRNG and emits no events, keys
   are rendered to strings and sorted before export, and every exported
   number is virtual time — equal seeds give byte-identical folded and
   speedscope documents. *)

type key = { k_pid : int; k_tid : int; k_spans : int list (* innermost first *) }

type t = {
  engine : Sim.Engine.t;
  hook : Sim.Engine.profiler; (* this profiler's subscription on [engine] *)
  t0 : int; (* virtual time at attach *)
  mutable last : int; (* clock at the last prof_event *)
  mutable pending : int; (* interval not yet claimed *)
  tbl : (key, int ref) Hashtbl.t;
  fibers : (int, string) Hashtbl.t; (* tid -> name (first spawn wins) *)
  hosts : (int, string) Hashtbl.t; (* pid -> name *)
  spans : (int, string) Hashtbl.t; (* span id -> name *)
  mutable idle : int; (* tail + intervals claimed by no wrapped event *)
  mutable finished : bool;
}

let attach e =
  let now = Sim.Engine.now e in
  let rec t =
    {
      engine = e;
      hook =
        {
          Sim.Engine.prof_event =
            (fun ~now ->
              t.pending <- t.pending + (now - t.last);
              t.last <- now);
          prof_attr =
            (fun ~pid ~tid ~spans ->
              if t.pending > 0 then begin
                let k = { k_pid = pid; k_tid = tid; k_spans = spans } in
                (match Hashtbl.find_opt t.tbl k with
                | Some r -> r := !r + t.pending
                | None -> Hashtbl.add t.tbl k (ref t.pending));
                t.pending <- 0
              end);
          prof_fiber =
            (fun ~tid ~pid:_ ~name ->
              if not (Hashtbl.mem t.fibers tid) then Hashtbl.add t.fibers tid name);
          prof_span = (fun ~id ~name -> Hashtbl.replace t.spans id name);
          prof_host = (fun ~pid ~name -> Hashtbl.replace t.hosts pid name);
        };
      t0 = now;
      last = now;
      pending = 0;
      tbl = Hashtbl.create 256;
      fibers = Hashtbl.create 64;
      hosts = Hashtbl.create 16;
      spans = Hashtbl.create 256;
      idle = 0;
      finished = false;
    }
  in
  Sim.Engine.set_profiler e t.hook;
  t

let finish t =
  if not t.finished then begin
    t.finished <- true;
    let now = Sim.Engine.now t.engine in
    (* Tail after the last event (e.g. [run ~until] advancing the clock
       past a drained queue) plus any interval whose ending event was
       scheduled before attach: both belong to no identity. *)
    t.pending <- t.pending + (now - t.last);
    t.last <- now;
    t.idle <- t.idle + t.pending;
    t.pending <- 0;
    Sim.Engine.clear_profiler t.engine t.hook
  end

let span_ns t = t.last - t.t0
let idle_ns t = t.idle

(* --- rendering ----------------------------------------------------------- *)

let host_frame t pid =
  if pid < 0 then "(engine)"
  else
    match Hashtbl.find_opt t.hosts pid with
    | Some n -> n
    | None -> Printf.sprintf "host-%d" pid

let fiber_frame t tid =
  if tid = 0 then "(scheduler)"
  else
    match Hashtbl.find_opt t.fibers tid with
    | Some n -> n
    | None -> Printf.sprintf "fiber-%d" tid

let span_frame t id =
  match Hashtbl.find_opt t.spans id with
  | Some n -> n
  | None -> Printf.sprintf "span-%d" id

(* Root-first frame list: host; fiber; outermost span; ...; innermost. *)
let frames_of_key t k =
  host_frame t k.k_pid :: fiber_frame t k.k_tid
  :: List.rev_map (span_frame t) k.k_spans

let idle_stack = [ "(idle)" ]

(* Folded entries, root-first, merged by rendered stack (two fibers
   with the same name fold together, as a flame graph would), sorted by
   stack for byte-determinism. *)
let folded_of t =
  if not t.finished then invalid_arg "Profile.Vt: finish before exporting";
  let merged : (string list, int ref) Hashtbl.t = Hashtbl.create 256 in
  let add frames v =
    if v > 0 then
      match Hashtbl.find_opt merged frames with
      | Some r -> r := !r + v
      | None -> Hashtbl.add merged frames (ref v)
  in
  Hashtbl.iter (fun k v -> add (frames_of_key t k) !v) t.tbl;
  add idle_stack t.idle;
  Hashtbl.fold (fun frames v acc -> (frames, !v) :: acc) merged []
  |> List.sort compare

let folded ts = List.concat_map folded_of ts |> List.sort compare

let total_ns folded = List.fold_left (fun a (_, v) -> a + v) 0 folded

(* Flamegraph collapsed format: "frame;frame;frame weight" per line.
   Frames are ';'-separated, so strip ';' from frame names. *)
let clean f = String.map (fun c -> if c = ';' then ',' else c) f

let to_folded_string folded =
  let b = Buffer.create 4096 in
  List.iter
    (fun (frames, v) ->
      Buffer.add_string b (String.concat ";" (List.map clean frames));
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b '\n')
    folded;
  Buffer.contents b

(* Speedscope "sampled" profile: one sample per folded stack with its
   exclusive nanoseconds as weight. Built on the repo's own JSON codec
   (printing is deterministic: construction order, stable numbers). *)
let to_speedscope_string ?(name = "mu virtual time") folded =
  let module J = Json in
  let frame_index : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let frames_rev = ref [] in
  let n_frames = ref 0 in
  let index f =
    match Hashtbl.find_opt frame_index f with
    | Some i -> i
    | None ->
      let i = !n_frames in
      Hashtbl.add frame_index f i;
      frames_rev := f :: !frames_rev;
      incr n_frames;
      i
  in
  let samples =
    List.map (fun (frames, _) -> J.List (List.map (fun f -> J.num_of_int (index f)) frames))
      folded
  in
  let weights = List.map (fun (_, v) -> J.num_of_int v) folded in
  let total = total_ns folded in
  let doc =
    J.Obj
      [
        ("$schema", J.Str "https://www.speedscope.app/file-format-schema.json");
        ( "shared",
          J.Obj
            [
              ( "frames",
                J.List
                  (List.rev_map (fun f -> J.Obj [ ("name", J.Str f) ]) !frames_rev) );
            ] );
        ( "profiles",
          J.List
            [
              J.Obj
                [
                  ("type", J.Str "sampled");
                  ("name", J.Str name);
                  ("unit", J.Str "nanoseconds");
                  ("startValue", J.num_of_int 0);
                  ("endValue", J.num_of_int total);
                  ("samples", J.List samples);
                  ("weights", J.List weights);
                ];
            ] );
        ("name", J.Str name);
        ("activeProfileIndex", J.num_of_int 0);
        ("exporter", J.Str "mu-profile");
      ]
  in
  J.to_string doc ^ "\n"

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc
