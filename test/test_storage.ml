(* Model-based test of the circular log's geometry rules (Mu.Log): one
   16-slot log on a bare MR, driven by random command sequences and
   compared after every step against a pure model of an unbounded log.

   The model keeps the live window [zeroed, next): every index written
   and not yet recycled, with the entry written there. The real log must
   read each of them back, hold nothing anywhere else in the ring, and
   agree on the FUO. The commands are the ones the protocol issues
   against a log:
   - the leader writes the next index, when the reuse bound allows it;
   - the recycler zeroes below a head no greater than the FUO, through
     the log's physical runs;
   - the follower's commit-piggyback advance;
   - the leader sets the FUO (to at most the next index);
   - a restart truncates the undecided tail.

   A crash-and-restore command over a log that missed a zeroing round
   is not modelled: the piggyback advance is lap-blind and fails it. *)

let slots = 16
let slack = 4
let value_cap = 16

type cmd = Write | Zero of int | Advance | Set_fuo of int | Truncate

let pp_cmd = function
  | Write -> "write"
  | Zero k -> Printf.sprintf "zero(%d)" k
  | Advance -> "advance"
  | Set_fuo k -> Printf.sprintf "set_fuo(%d)" k
  | Truncate -> "truncate"

type model = {
  entries : (int, string) Hashtbl.t;  (** Live index → value. *)
  mutable next : int;  (** Highest index written in the current lap, plus one. *)
  mutable fuo : int;
  mutable zeroed : int;  (** Every index below is recycled. *)
  mutable gen : int;  (** Distinguishes rewrites of one index. *)
}

let make_log () =
  let e = Util.engine () in
  let h = Util.host e ~id:0 in
  let mr =
    Rdma.Mr.register h ~size:(Mu.Log.required_size ~slots ~value_cap)
      ~access:Rdma.Verbs.access_rw
  in
  Mu.Log.attach mr ~slots ~value_cap

let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt

(* [lo + k mod (hi - lo + 1)]: a parameter drawn blind, mapped into the
   range the current state allows. *)
let pick k ~lo ~hi = lo + (k mod (hi - lo + 1))

let step log m = function
  | Write ->
    let idx = m.next in
    if Mu.Log.reusable log ~floor:m.zeroed ~slack idx then begin
      m.gen <- m.gen + 1;
      let v = Printf.sprintf "%d/%d" idx m.gen in
      Mu.Log.write_slot_local log idx ~proposal:(Int64.of_int (idx + 1))
        ~value:(Bytes.of_string v);
      Hashtbl.replace m.entries idx v;
      m.next <- idx + 1;
      if m.next - m.zeroed > slots - slack then
        fail "wrote index %d with only [0, %d) zeroed: fewer than %d slots free" idx
          m.zeroed slack
    end
  | Zero k ->
    let head = pick k ~lo:m.zeroed ~hi:m.fuo in
    let runs = Mu.Log.runs log ~from_idx:m.zeroed ~to_idx:head in
    let covered = List.concat_map (fun (p, n) -> List.init n (fun j -> p + j)) runs in
    let expected = List.init (head - m.zeroed) (fun i -> (m.zeroed + i) mod slots) in
    if covered <> expected || List.length runs > 2 then
      fail "runs [%d, %d) cover %s" m.zeroed head
        (String.concat "," (List.map string_of_int covered));
    List.iter
      (fun (p, n) ->
        for j = p to p + n - 1 do
          Mu.Log.zero_slot_local log j
        done)
      runs;
    for i = m.zeroed to head - 1 do
      Hashtbl.remove m.entries i
    done;
    m.zeroed <- head
  | Advance ->
    (* With no empty slot in the ring the piggyback rule never stops. *)
    if List.for_all (fun i -> Mu.Log.read_slot log i <> None) (List.init slots Fun.id) then
      fail "ring full before advance";
    let before = m.fuo in
    let moved = Mu.Log.advance_fuo log in
    let fuo = Mu.Log.fuo log in
    if fuo > max before (m.next - 1) then
      fail "advance moved fuo %d -> %d past the highest written index %d" before fuo
        (m.next - 1);
    (* Every index from the FUO to [next - 1] is written, so the
       piggyback rule stops exactly at the last one. *)
    m.fuo <- max before (m.next - 1);
    if moved <> (m.fuo > before) then fail "advance reported moved=%b" moved
  | Set_fuo k ->
    let v = pick k ~lo:m.fuo ~hi:m.next in
    Mu.Log.set_fuo log v;
    m.fuo <- v
  | Truncate ->
    Mu.Log.truncate_undecided log;
    for i = m.fuo to m.next - 1 do
      if Bytes.exists (fun c -> c <> '\000') (Mu.Log.read_slot_raw log i) then
        fail "truncate left slot %d (fuo %d, highest written %d) unzeroed" i m.fuo
          (m.next - 1);
      Hashtbl.remove m.entries i
    done;
    m.next <- m.fuo

(* After every step: each live index reads back the model's entry, every
   other slot of the ring is empty, and the FUOs agree. *)
let check_state log m =
  for i = m.zeroed to m.zeroed + slots - 1 do
    match Hashtbl.find_opt m.entries i, Mu.Log.read_slot log i with
    | Some v, Some s when Bytes.to_string s.Mu.Log.value = v -> ()
    | Some v, _ -> fail "live index %d does not read back %S" i v
    | None, None -> ()
    | None, Some s ->
      fail "index %d outside the live window [%d, %d) holds %S" i m.zeroed m.next
        (Bytes.to_string s.Mu.Log.value)
  done;
  if Mu.Log.fuo log <> m.fuo then fail "fuo %d, model %d" (Mu.Log.fuo log) m.fuo

let run cmds =
  let log = make_log () in
  let m = { entries = Hashtbl.create 32; next = 0; fuo = 0; zeroed = 0; gen = 0 } in
  List.iter
    (fun c ->
      step log m c;
      check_state log m)
    cmds;
  true

let cmd_gen =
  QCheck.Gen.(
    frequency
      [
        (6, return Write);
        (2, map (fun k -> Zero k) (0 -- 64));
        (3, return Advance);
        (2, map (fun k -> Set_fuo k) (0 -- 64));
        (1, return Truncate);
      ])

let model_test =
  QCheck.Test.make ~name:"log matches the unbounded-log model" ~count:300
    (QCheck.make
       ~print:(fun cs -> String.concat " " (List.map pp_cmd cs))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (0 -- 200) cmd_gen))
    run

(* The runs of a wrapping range, and of one that ends on the boundary. *)
let runs_split_at_wrap () =
  let log = make_log () in
  let runs = Alcotest.(check (list (pair int int))) in
  runs "wrapping" [ (14, 2); (0, 3) ] (Mu.Log.runs log ~from_idx:30 ~to_idx:35);
  runs "to the boundary" [ (12, 4) ] (Mu.Log.runs log ~from_idx:28 ~to_idx:32);
  runs "empty" [] (Mu.Log.runs log ~from_idx:5 ~to_idx:5);
  Alcotest.(check int) "room to wrap" 2 (Mu.Log.room_to_wrap log 30)

let suite =
  [
    QCheck_alcotest.to_alcotest model_test;
    ("runs split at the wrap", `Quick, runs_split_at_wrap);
  ]
