(* Rebuild the span tree from the probe event stream.

   The sim layer emits provenance as flat Instant events in cat "prov"
   (span_begin / span_end / point / edge) so the trace ring and the
   breakdown accumulator need no new event kinds; this module is the other
   half — it folds that stream back into a tree with causal edges. The
   builder is total: events referencing spans whose begin fell out of the
   ring are counted in [dropped], never an error. *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  name : string;
  pid : int;
  tid : int;
  start : int;
  sync : bool;
  args : (string * string) list;
  mutable finish : int;  (* -1 while open *)
  mutable end_args : (string * string) list;
  mutable children : int list;  (* ascending ids after [of_events] *)
}

type edge = { src : int; dst : int; ekind : string; ets : int }
type point = { span : int; pname : string; pts : int; ppid : int; pargs : (string * string) list }

type t = {
  spans : (int, span) Hashtbl.t;
  mutable roots : int list;
  mutable edges : edge list;
  mutable points : point list;
  mutable dropped : int;
}

let span t id = Hashtbl.find_opt t.spans id
let is_open s = s.finish < 0
let duration s = if is_open s then 0 else s.finish - s.start

let fold t f acc =
  (* Deterministic iteration: ascending span id. *)
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.spans [] in
  List.fold_left (fun acc id -> f acc (Hashtbl.find t.spans id)) acc (List.sort compare ids)

let spans t = List.rev (fold t (fun acc s -> s :: acc) [])
let size t = Hashtbl.length t.spans

let arg args key = List.assoc_opt key args
let int_arg args key = Option.bind (arg args key) int_of_string_opt

let strip keys args = List.filter (fun (k, _) -> not (List.mem k keys)) args

let of_events events =
  let t =
    { spans = Hashtbl.create 1024; roots = []; edges = []; points = []; dropped = 0 }
  in
  List.iter
    (fun (ev : Sim.Probe.event) ->
      if ev.cat = "prov" && ev.kind = Sim.Probe.Instant then
        match ev.name with
        | "span_begin" -> (
          match int_arg ev.args "span", int_arg ev.args "parent", arg ev.args "name" with
          | Some id, Some parent, Some name ->
            Hashtbl.replace t.spans id
              {
                id;
                parent;
                name;
                pid = ev.pid;
                tid = ev.tid;
                start = ev.ts;
                sync = arg ev.args "sync" = Some "1";
                args = strip [ "span"; "parent"; "name"; "sync" ] ev.args;
                finish = -1;
                end_args = [];
                children = [];
              }
          | _ -> t.dropped <- t.dropped + 1)
        | "span_end" -> (
          match Option.bind (int_arg ev.args "span") (Hashtbl.find_opt t.spans) with
          | Some s ->
            s.finish <- ev.ts;
            s.end_args <- strip [ "span" ] ev.args
          | None -> t.dropped <- t.dropped + 1)
        | "point" -> (
          match int_arg ev.args "span", arg ev.args "name" with
          | Some span, Some pname when Hashtbl.mem t.spans span ->
            t.points <-
              {
                span;
                pname;
                pts = ev.ts;
                ppid = ev.pid;
                pargs = strip [ "span"; "name" ] ev.args;
              }
              :: t.points
          | _ -> t.dropped <- t.dropped + 1)
        | "edge" -> (
          match int_arg ev.args "src", int_arg ev.args "dst", arg ev.args "kind" with
          | Some src, Some dst, Some ekind ->
            t.edges <- { src; dst; ekind; ets = ev.ts } :: t.edges
          | _ -> t.dropped <- t.dropped + 1)
        | _ -> t.dropped <- t.dropped + 1)
    events;
  t.edges <- List.rev t.edges;
  t.points <- List.rev t.points;
  (* Children and roots, ascending. A span whose parent never made it into
     the ring is treated as a root. *)
  let roots = ref [] in
  fold t
    (fun () s ->
      match Hashtbl.find_opt t.spans s.parent with
      | Some p when s.parent <> 0 -> p.children <- s.id :: p.children
      | Some _ | None -> roots := s.id :: !roots)
    ();
  fold t (fun () s -> s.children <- List.rev s.children) ();
  t.roots <- List.rev !roots;
  t

let points_of t id = List.filter (fun p -> p.span = id) t.points

(* Well-formedness: parents were allocated (and began) before their
   children — span ids grow monotonically, so a parent id >= child id
   also rules out cycles — and sync spans nest strictly inside their
   parent. Returns human-readable violations; [] = well-formed. *)
let check t =
  let bad = ref [] in
  let err fmt = Fmt.kstr (fun m -> bad := m :: !bad) fmt in
  fold t
    (fun () s ->
      if (not (is_open s)) && s.finish < s.start then
        err "span %d (%s): ends at %d before it starts at %d" s.id s.name s.finish s.start;
      match Hashtbl.find_opt t.spans s.parent with
      | None -> ()
      | Some p ->
        if p.id >= s.id then
          err "span %d (%s): parent %d allocated after it (cycle?)" s.id s.name p.id;
        if p.start > s.start then
          err "span %d (%s): starts at %d before parent %d at %d" s.id s.name s.start p.id
            p.start;
        if s.sync && (not (is_open p)) && (is_open s || s.finish > p.finish) then
          err "sync span %d (%s): outlives its parent %d (%s)" s.id s.name p.id p.name)
    ();
  List.rev !bad
