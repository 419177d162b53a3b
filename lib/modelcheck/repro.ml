type t = { b_triple : Shrink.triple; b_verdict : Conformance.verdict }

let schema = "mu-verify-repro/1"

(* --- encode --------------------------------------------------------------- *)

let cmd_to_json = function
  | Apps.Kv_store.Get { key } ->
    Json.Obj [ ("op", Json.Str "get"); ("key", Json.Str key) ]
  | Apps.Kv_store.Put { key; value } ->
    Json.Obj
      [
        ("op", Json.Str "put");
        ("key", Json.Str key);
        ("value", Json.Str value);
      ]
  | Apps.Kv_store.Delete { key } ->
    Json.Obj [ ("op", Json.Str "delete"); ("key", Json.Str key) ]

let op_to_json (op : Workload.Chaos.scripted_op) =
  Json.Obj
    [
      ("think", Json.num_of_int op.s_think);
      ("req", Json.num_of_int op.s_req);
      ("cmd", cmd_to_json op.s_cmd);
    ]

let to_string b =
  let t = b.b_triple in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str schema);
         ("seed", Json.Str (Int64.to_string t.Shrink.t_seed));
         ("n", Json.num_of_int t.Shrink.t_n);
         ("inject", Json.num_of_int t.Shrink.t_inject);
         ("scenario", Faults.Scenario.to_json t.Shrink.t_scenario);
         ( "history",
           Json.List
             (List.map
                (fun client -> Json.List (List.map op_to_json client))
                t.Shrink.t_history) );
         ("verdict", Json.Str (Conformance.verdict_to_string b.b_verdict));
       ])

(* --- decode --------------------------------------------------------------- *)

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "repro: missing or bad %S" name)

let cmd_of_json j =
  let* key = field "key" Json.to_str j in
  match Option.bind (Json.member "op" j) Json.to_str with
  | Some "get" -> Ok (Apps.Kv_store.Get { key })
  | Some "delete" -> Ok (Apps.Kv_store.Delete { key })
  | Some "put" ->
    let* value = field "value" Json.to_str j in
    Ok (Apps.Kv_store.Put { key; value })
  | Some op -> Error (Printf.sprintf "repro: unknown op %S" op)
  | None -> Error "repro: missing or bad \"op\""

let op_of_json j =
  let* s_think = field "think" Json.to_int j in
  let* s_req = field "req" Json.to_int j in
  let* s_cmd =
    match Json.member "cmd" j with
    | Some cj -> cmd_of_json cj
    | None -> Error "repro: missing \"cmd\""
  in
  Ok { Workload.Chaos.s_think; s_req; s_cmd }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let of_string s =
  let* j = Json.of_string s in
  let* () =
    match Option.bind (Json.member "schema" j) Json.to_str with
    | Some v when v = schema -> Ok ()
    | Some v -> Error (Printf.sprintf "repro: unknown schema %S" v)
    | None -> Error "repro: missing \"schema\""
  in
  let* seed =
    let* s = field "seed" Json.to_str j in
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "repro: bad seed %S" s)
  in
  let* n = field "n" Json.to_int j in
  let* inject = field "inject" Json.to_int j in
  let* scenario =
    match Json.member "scenario" j with
    | Some sj -> Faults.Scenario.of_json sj
    | None -> Error "repro: missing \"scenario\""
  in
  let* () = Faults.Scenario.validate ~n scenario in
  let* history =
    match Option.bind (Json.member "history" j) Json.to_list with
    | Some clients ->
      map_result
        (fun cj ->
          match Json.to_list cj with
          | Some ops -> map_result op_of_json ops
          | None -> Error "repro: history client is not a list")
        clients
    | None -> Error "repro: missing or bad \"history\""
  in
  let* b_verdict =
    let* v = field "verdict" Json.to_str j in
    match Conformance.verdict_of_string v with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "repro: unknown verdict %S" v)
  in
  Ok
    {
      b_triple =
        {
          Shrink.t_seed = seed;
          t_n = n;
          t_inject = inject;
          t_scenario = scenario;
          t_history = history;
        };
      b_verdict;
    }
