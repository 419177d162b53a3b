(* Span-tree exporters: a standalone JSON document (schema
   "mu-provenance/1") and Chrome-trace extra events (nestable-async phases
   per span + flow arrows per causal edge) to overlay on the regular
   Perfetto export.

   Determinism rules match Trace.Chrome: integer virtual-ns timestamps (the
   JSON document) or fixed-point µs via Chrome.fixed_ts (trace events),
   strings escaped by Json, spans in ascending id, edges and points in
   stream order. Same seed => byte-identical output. *)

let args_json args = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)
let int = Json.num_of_int

let span_json (s : Tree.span) =
  Json.Obj
    [
      ("id", int s.Tree.id);
      ("parent", int s.Tree.parent);
      ("name", Json.Str s.Tree.name);
      ("pid", int s.Tree.pid);
      ("tid", int s.Tree.tid);
      ("start", int s.Tree.start);
      ("end", int s.Tree.finish);
      ("sync", Json.Bool s.Tree.sync);
      ("args", args_json s.Tree.args);
      ("end_args", args_json s.Tree.end_args);
      ("children", Json.List (List.map int s.Tree.children));
    ]

let json_string (t : Tree.t) =
  let edge (e : Tree.edge) =
    Json.Obj
      [ ("src", int e.src); ("dst", int e.dst); ("kind", Json.Str e.ekind); ("ts", int e.ets) ]
  in
  let point (p : Tree.point) =
    Json.Obj
      [
        ("span", int p.span);
        ("name", Json.Str p.pname);
        ("ts", int p.pts);
        ("pid", int p.ppid);
        ("args", args_json p.pargs);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "mu-provenance/1");
         ("spans", Json.List (List.map span_json (Tree.spans t)));
         ("edges", Json.List (List.map edge t.Tree.edges));
         ("points", Json.List (List.map point t.Tree.points));
         ("dropped", int t.Tree.dropped);
       ])
  ^ "\n"

let write_json path t =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (json_string t))

(* Chrome-trace overlay. Each span becomes a nestable-async "b"/"e" pair
   (id = span id, so Perfetto stacks them into per-process provenance
   tracks); each causal edge becomes a flow "s"->"f" arrow between the two
   span phases. Open spans get no "e" — Perfetto renders them to the end of
   the trace, which is exactly right for lost requests. *)

let out_pid p = if p < 0 then Trace.Chrome.engine_pid else p

let span_phase ~ph ~ts ~pid ~name ~id args =
  let b = Stdlib.Buffer.create 128 in
  Stdlib.Buffer.add_string b "{\"name\":";
  Json.add_string b name;
  Stdlib.Buffer.add_string b
    (Printf.sprintf ",\"cat\":\"prov\",\"ph\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":0,\"id\":\"0x%x\""
       ph (Trace.Chrome.fixed_ts ts) (out_pid pid) id);
  if args <> [] then begin
    Stdlib.Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Stdlib.Buffer.add_char b ',';
        Json.add_string b k;
        Stdlib.Buffer.add_char b ':';
        Json.add_string b v)
      args;
    Stdlib.Buffer.add_char b '}'
  end;
  Stdlib.Buffer.add_char b '}';
  Stdlib.Buffer.contents b

let flow_phase ~ph ~ts ~pid ~kind ~id =
  let b = Stdlib.Buffer.create 128 in
  Stdlib.Buffer.add_string b "{\"name\":";
  Json.add_string b kind;
  Stdlib.Buffer.add_string b
    (Printf.sprintf ",\"cat\":\"prov_edge\",\"ph\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":0,\"id\":\"0x%x\"%s}"
       ph (Trace.Chrome.fixed_ts ts) (out_pid pid) id
       (if ph = "f" then ",\"bp\":\"e\"" else ""));
  Stdlib.Buffer.contents b

let trace_events (t : Tree.t) =
  let evs = ref [] in
  Tree.fold t
    (fun () (s : Tree.span) ->
      evs :=
        span_phase ~ph:"b" ~ts:s.Tree.start ~pid:s.Tree.pid ~name:s.Tree.name ~id:s.Tree.id
          (("span", string_of_int s.Tree.id)
          :: ("parent", string_of_int s.Tree.parent)
          :: s.Tree.args)
        :: !evs;
      if not (Tree.is_open s) then
        evs :=
          span_phase ~ph:"e" ~ts:s.Tree.finish ~pid:s.Tree.pid ~name:s.Tree.name
            ~id:s.Tree.id s.Tree.end_args
          :: !evs)
    ();
  List.iteri
    (fun i (e : Tree.edge) ->
      match Tree.span t e.src, Tree.span t e.dst with
      | Some src, Some dst ->
        (* Flow ids must not collide with span ids used above; offset into
           a disjoint range keyed by edge index. *)
        let fid = 0x1000000 + i in
        evs := flow_phase ~ph:"s" ~ts:e.ets ~pid:src.Tree.pid ~kind:e.ekind ~id:fid :: !evs;
        evs := flow_phase ~ph:"f" ~ts:e.ets ~pid:dst.Tree.pid ~kind:e.ekind ~id:fid :: !evs
      | _ -> ())
    t.Tree.edges;
  List.rev !evs
