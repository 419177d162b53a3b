(* lib/json: the one codec every exporter prints through. Lossless
   round-trip, the strict RFC 8259 corners the parser rejects, non-finite
   numbers, and that each exporter's output parses back with the original
   name when that name needs escaping. *)

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- codec ----------------------------------------------------------------- *)

let value_gen =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.0) float in
  let num = oneof [ finite; map float_of_int int; map float_of_int small_signed_int ] in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) num;
        map (fun s -> Json.Str s) string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 4))));
               ( 1,
                 map (fun kvs -> Json.Obj kvs) (list_size (0 -- 4) (pair string (self (n / 4)))) );
             ])

let roundtrip =
  QCheck.Test.make ~name:"of_string (to_string v) = Ok v" ~count:500
    (QCheck.make ~print:Json.to_string value_gen)
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

let rejected doc () =
  match Json.of_string doc with
  | Ok _ -> Alcotest.failf "strict parser accepted %S" doc
  | Error _ -> ()

let accepted () =
  List.iter
    (fun (doc, v) ->
      match Json.of_string doc with
      | Ok got -> check doc true (got = v)
      | Error e -> Alcotest.failf "rejected %S: %s" doc e)
    [
      ("0", Json.Num 0.0);
      ("-0.5e-3", Json.Num (-0.0005));
      ("10E+2", Json.Num 1000.0);
      ("\"\\u00e9\\u0041\"", Json.Str "\xc3\xa9A");
      ("[1,{\"a\":null}]", Json.List [ Json.Num 1.0; Json.Obj [ ("a", Json.Null) ] ]);
    ]

let non_finite_is_null () =
  check_str "nan" "[null,null,null]"
    (Json.to_string (Json.List [ Json.Num nan; Json.Num infinity; Json.Num neg_infinity ]))

(* --- every exporter parses -------------------------------------------------- *)

let nasty = "a\"b\\c\nd\te"

let parse what s =
  match Json.of_string (String.trim s) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s does not parse: %s" what e

let path j keys =
  List.fold_left
    (fun acc k ->
      match acc, int_of_string_opt k with
      | Some (Json.List l), Some i -> List.nth_opt l i
      | acc, _ -> Option.bind acc (Json.member k))
    (Some j) keys

let str_at what j keys =
  match Option.bind (path j keys) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "%s: no string at %s" what (String.concat "." keys)

let chrome_parses () =
  let ev =
    {
      Sim.Probe.ts = 1500;
      kind = Sim.Probe.Instant;
      name = nasty;
      cat = "";
      pid = 0;
      tid = 1;
      id = 0;
      args = [ (nasty, nasty) ];
    }
  in
  let j =
    parse "chrome trace"
      (Trace.Chrome.to_string ~processes:[ (0, nasty) ] ~threads:[ ((0, 1), nasty) ] [ ev ])
  in
  check_str "process name" nasty (str_at "chrome" j [ "traceEvents"; "0"; "args"; "name" ]);
  check_str "thread name" nasty (str_at "chrome" j [ "traceEvents"; "1"; "args"; "name" ]);
  check_str "event name" nasty (str_at "chrome" j [ "traceEvents"; "2"; "name" ]);
  check_str "event arg" nasty (str_at "chrome" j [ "traceEvents"; "2"; "args"; nasty ])

let telemetry_parses () =
  let reg = Telemetry.Registry.create () in
  Telemetry.Registry.Counter.inc (Telemetry.Registry.counter reg ~labels:[ ("name", nasty) ] "c");
  let h = Telemetry.Registry.histogram reg ~labels:[ ("name", nasty) ] "h" in
  Telemetry.Hdr.record h 1234;
  let j = parse "telemetry json" (Telemetry.Export.json reg) in
  check_str "counter label" nasty (str_at "telemetry" j [ "metrics"; "0"; "labels"; "name" ]);
  check_str "histogram label" nasty (str_at "telemetry" j [ "metrics"; "1"; "labels"; "name" ])

let monitor_parses () =
  let log = Monitor.Log.create () in
  let (_ : Monitor.Log.entry) =
    Monitor.Log.add log ~at:1 ~epoch:0 ~window:0 ~rule:nasty ~edge:`Fire ~detail:nasty
  in
  let j = parse "alert log" (Monitor.Log.to_json log) in
  check_str "rule" nasty (str_at "alert log" j [ "entries"; "0"; "rule" ]);
  check_str "detail" nasty (str_at "alert log" j [ "entries"; "0"; "detail" ]);
  check_str "firing" nasty (str_at "alert log" j [ "firing"; "0" ])

let span_tree_parses () =
  let prov name args =
    { Sim.Probe.ts = 10; kind = Sim.Probe.Instant; name; cat = "prov"; pid = 0; tid = 1; id = 0;
      args }
  in
  let tree =
    Provenance.Tree.of_events
      [
        prov "span_begin" [ ("span", "1"); ("parent", "0"); ("name", nasty); (nasty, nasty) ];
        prov "point" [ ("span", "1"); ("name", nasty) ];
        prov "span_end" [ ("span", "1") ];
      ]
  in
  let j = parse "span tree" (Provenance.Export.json_string tree) in
  check_str "span name" nasty (str_at "span tree" j [ "spans"; "0"; "name" ]);
  check_str "span arg" nasty (str_at "span tree" j [ "spans"; "0"; "args"; nasty ]);
  check_str "point name" nasty (str_at "span tree" j [ "points"; "0"; "name" ]);
  List.iter
    (fun ev -> ignore (parse "provenance overlay event" ev))
    (Provenance.Export.trace_events tree)

let speedscope_parses () =
  let j =
    parse "speedscope" (Profile.Vt.to_speedscope_string ~name:nasty [ ([ nasty; "leaf" ], 5) ])
  in
  check_str "profile name" nasty (str_at "speedscope" j [ "profiles"; "0"; "name" ]);
  check "frame name" true
    (List.exists
       (fun f -> Option.bind (Json.member "name" f) Json.to_str = Some nasty)
       (Option.get (Option.bind (path j [ "shared"; "frames" ]) Json.to_list)))

let suite =
  [
    QCheck_alcotest.to_alcotest roundtrip;
    ("strict: accepts RFC 8259 numbers and escapes", `Quick, accepted);
    ("strict: rejects \\u with underscores", `Quick, rejected "\"\\u1_2_\"");
    ("strict: rejects short \\u", `Quick, rejected "\"\\u12\"");
    ("strict: rejects leading zero", `Quick, rejected "007");
    ("strict: rejects trailing dot", `Quick, rejected "1.");
    ("strict: rejects raw control char", `Quick, rejected "\"a\nb\"");
    ("strict: rejects bare minus and plus", `Quick, rejected "[-,+1]");
    ("nan and inf print as null", `Quick, non_finite_is_null);
    ("chrome trace parses", `Quick, chrome_parses);
    ("telemetry json parses", `Quick, telemetry_parses);
    ("alert log parses", `Quick, monitor_parses);
    ("span tree parses", `Quick, span_tree_parses);
    ("speedscope parses", `Quick, speedscope_parses);
  ]
