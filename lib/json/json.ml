(* The repo's one JSON codec: every exported document (traces, telemetry,
   alert logs, span trees, profiles, bench results, scenarios, repros) is
   printed through it and every document read back is parsed by it.
   Hand-written because the repo deliberately carries no external JSON
   dependency. Printing is deterministic: object fields stay in
   construction order and number formatting is stable, so equal values
   yield byte-identical documents. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let num_of_int i = Num (float_of_int i)

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 4.503599627370496e15 ->
    Some (int_of_float f)
  | _ -> None

let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

(* --- printing ----------------------------------------------------------- *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Integers print without a fraction; other finite numbers print with the
   fewest significant digits (15, 16 or 17) that read back to the same
   float, so printing and parsing round-trip exactly. *)
let print_num buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f <= 4.503599627370496e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.16g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    Buffer.add_string buf s

let rec print buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> print_num buf f
  | Str s -> add_string buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        print buf v)
      l;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf k;
        Buffer.add_char buf ':';
        print buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print buf v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some got when got = c -> advance st
  | Some got -> fail st.pos (Printf.sprintf "expected %C, found %C" c got)
  | None -> fail st.pos (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "invalid literal (expected %s)" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail st.pos "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let code = ref 0 in
          for _ = 1 to 4 do
            let d =
              match peek st with
              | Some ('0' .. '9' as h) -> Char.code h - Char.code '0'
              | Some ('a' .. 'f' as h) -> Char.code h - Char.code 'a' + 10
              | Some ('A' .. 'F' as h) -> Char.code h - Char.code 'A' + 10
              | _ -> fail st.pos "invalid \\u escape"
            in
            code := (!code lsl 4) lor d;
            advance st
          done;
          let code = !code in
          (* Encode the BMP code point as UTF-8; surrogate pairs are not
             supported (scenario names are ASCII in practice). *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | c -> fail (st.pos - 1) (Printf.sprintf "invalid escape %C" c));
        loop ())
    | Some c when Char.code c < 0x20 ->
      fail st.pos "unescaped control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

(* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
let parse_number st =
  let start = st.pos in
  let digits () =
    let from = st.pos in
    while match peek st with Some '0' .. '9' -> true | _ -> false do
      advance st
    done;
    if st.pos = from then fail st.pos "invalid number: expected a digit"
  in
  if peek st = Some '-' then advance st;
  (match peek st with
  | Some '0' -> advance st
  | _ -> digits ());
  if peek st = Some '.' then begin
    advance st;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    digits ()
  | _ -> ());
  Num (float_of_string (String.sub st.s start (st.pos - start)))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [ parse_value st ] in
      skip_ws st;
      while peek st = Some ',' do
        advance st;
        items := parse_value st :: !items;
        skip_ws st
      done;
      expect st ']';
      List (List.rev !items)
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws st;
      while peek st = Some ',' do
        advance st;
        fields := field () :: !fields;
        skip_ws st
      done;
      expect st '}';
      Obj (List.rev !fields)
    end
  | Some ('0' .. '9' | '-') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "at offset %d: trailing garbage" st.pos)
    else Ok v
  | exception Parse_error msg -> Error msg
