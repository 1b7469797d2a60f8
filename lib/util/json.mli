(** Minimal JSON values for the serve protocol.

    Total by construction: {!parse} never raises on malformed input
    (depth-bounded, every syntax error is a value), and {!to_string}
    always emits valid JSON (non-finite floats become [null]). This is
    what lets the engine promise that {e arbitrary} request bytes only
    ever produce typed error responses. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value spanning the whole string (trailing whitespace
    allowed, trailing bytes are an error). Nesting beyond an internal
    depth bound is rejected rather than overflowing the stack. *)

val to_string : t -> string
(** Compact single-line rendering (no newlines — NDJSON-safe; control
    characters in strings are escaped). A finite float prints as the
    shortest decimal that parses back to it, always with a [.] or an
    exponent, so [parse (to_string (Float f))] is [Ok (Float f)]. *)

val member : string -> t -> t option
(** Field lookup; [None] on a non-object or a missing key. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_bool_opt : t -> bool option

val equal : t -> t -> bool
