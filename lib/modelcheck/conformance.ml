open Workload.Chaos

(* One linearization step of the per-key model: given the key's current
   value, does this recorded reply fit, and what value results? An
   unanswered write/delete has no reply to contradict — it may always be
   linearized (at worst dead last, where it affects nothing retained). *)
let step state (r : recorded) =
  match (r.r_cmd, r.r_reply) with
  | Apps.Kv_store.Put { value; _ }, (Some Apps.Kv_store.Stored | None) ->
    Some (Some value)
  | Apps.Kv_store.Put _, Some _ -> None
  | Apps.Kv_store.Get _, Some (Apps.Kv_store.Value v) ->
    if state = Some v then Some state else None
  | Apps.Kv_store.Get _, Some Apps.Kv_store.Not_found ->
    if state = None then Some state else None
  | Apps.Kv_store.Get _, _ -> None
  | Apps.Kv_store.Delete _, Some Apps.Kv_store.Deleted ->
    if state <> None then Some None else None
  | Apps.Kv_store.Delete _, Some Apps.Kv_store.Not_found ->
    if state = None then Some None else None
  | Apps.Kv_store.Delete _, None -> Some None
  | Apps.Kv_store.Delete _, Some _ -> None

(* Wing & Gong over one key's recorded ops: a candidate for the next
   linearization point is any remaining op not real-time-after another
   remaining op. *)
let check_key ops =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let used = Array.make n false in
  let rec go remaining state =
    if remaining = 0 then true
    else begin
      let min_res = ref max_int in
      for i = 0 to n - 1 do
        if (not used.(i)) && arr.(i).r_responded < !min_res then
          min_res := arr.(i).r_responded
      done;
      let rec try_candidates i =
        if i >= n then false
        else if used.(i) || arr.(i).r_invoked > !min_res then try_candidates (i + 1)
        else
          match step state arr.(i) with
          | Some state' ->
            used.(i) <- true;
            if go (remaining - 1) state' then true
            else begin
              used.(i) <- false;
              try_candidates (i + 1)
            end
          | None -> try_candidates (i + 1)
      in
      try_candidates 0
    end
  in
  go n None

let key_of (r : recorded) =
  match r.r_cmd with
  | Apps.Kv_store.Get { key } | Apps.Kv_store.Delete { key } -> key
  | Apps.Kv_store.Put { key; _ } -> key

(* Unanswered reads observed nothing; everything else is checkable. *)
let checkable (r : recorded) =
  match (r.r_cmd, r.r_reply) with Apps.Kv_store.Get _, None -> false | _ -> true

let by_key records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if checkable r then begin
        let key = key_of r in
        let cur = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
        Hashtbl.replace tbl key (r :: cur)
      end)
    records;
  Hashtbl.fold (fun k ops acc -> (k, List.rev ops) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- minimal witness ------------------------------------------------------ *)

(* Sound removal guard: dropping [o] from a conformant sub-history must
   keep it conformant, so a candidate that still fails is a genuine
   counterexample. Reads only constrain; a write is kept while any
   retained read observed its value or any retained delete answered
   [Deleted] (its success may rest on this write); a delete is kept while
   any retained reply asserts absence ([Not_found] from a read or another
   delete). *)
let removable retained (o : recorded) =
  let depends pred = List.exists (fun r -> r != o && pred r) retained in
  match o.r_cmd with
  | Apps.Kv_store.Get _ -> true
  | Apps.Kv_store.Put { value; _ } ->
    not
      (depends (fun r ->
           match (r.r_cmd, r.r_reply) with
           | Apps.Kv_store.Get _, Some (Apps.Kv_store.Value v) -> v = value
           | Apps.Kv_store.Delete _, Some Apps.Kv_store.Deleted -> true
           | _ -> false))
  | Apps.Kv_store.Delete _ ->
    not
      (depends (fun r ->
           match (r.r_cmd, r.r_reply) with
           | ( (Apps.Kv_store.Get _ | Apps.Kv_store.Delete _),
               Some Apps.Kv_store.Not_found ) ->
             true
           | _ -> false))

let minimize_key ops =
  let ops =
    List.stable_sort
      (fun a b ->
        compare (a.r_invoked, a.r_responded, a.r_proc, a.r_req)
          (b.r_invoked, b.r_responded, b.r_proc, b.r_req))
      ops
  in
  let current = ref ops in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun o ->
        let kept = List.filter (fun x -> x != o) !current in
        if
          List.memq o !current && removable !current o && kept <> []
          && not (check_key kept)
        then begin
          current := kept;
          progress := true
        end)
      (List.rev !current)
  done;
  !current

type witness = { ckey : string; cops : recorded list }

let check records =
  let rec first_failing = function
    | [] -> None
    | (key, ops) :: rest ->
      if check_key ops then first_failing rest else Some (key, ops)
  in
  match first_failing (by_key records) with
  | None -> None
  | Some (key, ops) -> Some { ckey = key; cops = minimize_key ops }

let pp_recorded ppf (r : recorded) =
  let reply =
    match r.r_reply with
    | Some rep -> Fmt.str "%a" Apps.Kv_store.pp_reply rep
    | None -> "(no reply)"
  in
  if r.r_responded = max_int then
    Fmt.pf ppf "proc %d req %d  [%d, open)  %a -> PENDING" r.r_proc r.r_req
      r.r_invoked Apps.Kv_store.pp_command r.r_cmd
  else
    Fmt.pf ppf "proc %d req %d  [%d, %d]  %a -> %s" r.r_proc r.r_req r.r_invoked
      r.r_responded Apps.Kv_store.pp_command r.r_cmd reply

let pp_witness ppf w =
  Fmt.pf ppf "key %S: %d-op non-conformant sub-history" w.ckey
    (List.length w.cops);
  (* Forced newlines: printed outside any formatting box. *)
  List.iter (fun r -> Fmt.pf ppf "@\n    %a" pp_recorded r) w.cops

(* --- verdicts ------------------------------------------------------------- *)

type verdict = Pass | Not_conformant | Invariant_violation | Stall

let verdict_to_string = function
  | Pass -> "pass"
  | Not_conformant -> "not-conformant"
  | Invariant_violation -> "invariant-violation"
  | Stall -> "stall"

let verdict_of_string = function
  | "pass" -> Some Pass
  | "not-conformant" -> Some Not_conformant
  | "invariant-violation" -> Some Invariant_violation
  | "stall" -> Some Stall
  | _ -> None

let failing = function Pass -> false | _ -> true

let judge (o : outcome) =
  match check o.record with
  | Some w -> (Not_conformant, Some w)
  | None ->
    if o.violations <> [] then (Invariant_violation, None)
    else if not o.completed then (Stall, None)
    else (Pass, None)

let passed o = fst (judge o) = Pass

let pp_outcome ppf o =
  let witness = check o.record in
  let failures =
    (if o.completed then [] else [ "stalled" ])
    @ (if witness = None then [] else [ "NOT CONFORMANT" ])
    @
    match o.violations with
    | [] -> []
    | vs -> [ Printf.sprintf "%d invariant violation(s)" (List.length vs) ]
  in
  Fmt.pf ppf "%-18s seed=%-8Ld n=%d  %4d ops, %4d committed%s  %s"
    o.scenario.Faults.Scenario.name o.seed o.n o.ops o.committed
    (match o.rejoins with
    | [] -> ""
    | rs ->
      Fmt.str ", %d rejoin%s (%s)" (List.length rs)
        (if List.length rs = 1 then "" else "s")
        (String.concat ", "
           (List.map
              (fun r ->
                Printf.sprintf "host %d: %d entries in %dus" r.Mu.Smr.pid
                  r.Mu.Smr.entries_pulled
                  ((r.Mu.Smr.parity_at - r.Mu.Smr.restarted_at) / 1_000))
              rs)))
    (if failures = [] then "ok" else String.concat ", " failures);
  (* The witness only ever extends a failing line, so passing lines keep
     their one-line format. *)
  Option.iter (Fmt.pf ppf "@\n  %a" pp_witness) witness

(* --- chaos repro ------------------------------------------------------------ *)

(* Everything needed to replay a failing run byte-for-byte: the seed, the
   replica count and the full scenario. The violation summary is carried
   for humans; replay only needs the first three. *)
let repro_json o =
  Json.to_string
    (Json.Obj
       [
         ("seed", Json.Str (Int64.to_string o.seed));
         ("n", Json.num_of_int o.n);
         ("scenario", Faults.Scenario.to_json o.scenario);
         ( "violation",
           Json.Str
             (match fst (judge o) with
             | Not_conformant -> "replies not conformant to the KV model"
             | Invariant_violation ->
               Fmt.str "%a" (Fmt.list Mu.Invariants.pp_violation) o.violations
             | Stall -> "liveness stall (clients never finished)"
             | Pass -> "none") );
       ])

let parse_repro s =
  let ( let* ) = Result.bind in
  let* j = Json.of_string s in
  let* seed =
    match Option.bind (Json.member "seed" j) Json.to_str with
    | Some s -> (
      match Int64.of_string_opt s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "repro: bad seed %S" s))
    | None -> Error "repro: missing \"seed\""
  in
  let* n =
    match Option.bind (Json.member "n" j) Json.to_int with
    | Some n -> Ok n
    | None -> Error "repro: missing \"n\""
  in
  let* scenario =
    match Json.member "scenario" j with
    | Some sj -> Faults.Scenario.of_json sj
    | None -> Error "repro: missing \"scenario\""
  in
  let* () = Faults.Scenario.validate ~n scenario in
  Ok (seed, n, scenario)
