type kind =
  | Instant
  | Span_begin
  | Span_end
  | Async_begin
  | Async_end
  | Counter
  | Meta_process
  | Meta_thread

type event = {
  ts : int;
  kind : kind;
  name : string;
  cat : string;
  pid : int;
  tid : int;
  id : int;
  args : (string * string) list;
}

type t = { mutable sink : (event -> unit) option }

let create () = { sink = None }
let set_sink t f = t.sink <- Some f
let enabled t = t.sink <> None
let emit t ev = match t.sink with None -> () | Some f -> f ev
let sink t = t.sink
