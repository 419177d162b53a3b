(** The repo's one JSON codec: a value type with a deterministic printer
    and a strict parser. The repo carries no external JSON dependency, so
    every exported document is printed through this module, either as a
    {!t} or, for the streamed trace writers, through {!add_string}.
    Printing preserves object field order and formats numbers stably, so
    equal values yield byte-identical documents. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val num_of_int : int -> t

val to_int : t -> int option
(** [Some i] only for numbers that are exact integers within the float
    53-bit mantissa. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option

val member : string -> t -> t option
(** Field lookup on an object; [None] on missing field or non-object. *)

val add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string: double quote, backslash, newline,
    carriage return and tab get their short escapes, other control
    characters [\u00XX]. The one string escaper every exporter uses. *)

val to_string : t -> string
(** Compact document, no whitespace. Integral numbers within the 53-bit
    mantissa print without a fraction; other finite numbers print with
    the fewest significant digits (15 to 17) that parse back to the same
    float. JSON has no NaN or infinity, so non-finite numbers print as
    [null]. *)

val of_string : string -> (t, string) result
(** Strict RFC 8259 parse of a complete document: no trailing garbage,
    no leading zeros ([007]), no bare trailing dot ([1.]), exactly four
    hex digits after [\u], no raw control characters inside strings.
    The error carries a byte offset. [\u] escapes outside the BMP
    (surrogate pairs) are not decoded. *)
