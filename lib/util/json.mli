(** A minimal JSON reader for the files this repository writes itself
    (benchmark snapshots, Chrome trace exports): recursive descent over
    a string, with no library dependency.  Strings decode the standard
    escapes; a [\uXXXX] escape is shape-checked and read as ['?'], since
    no reader here needs the code point. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string * int
(** What is wrong, and the byte offset at which the reader stopped. *)

val parse : string -> t
(** The one value the text holds, with optional surrounding whitespace.
    Raises {!Parse_error} on anything else. *)

val member : string -> t -> t option
(** The named field of an object; [None] if it is missing or the value
    is not an object. *)
