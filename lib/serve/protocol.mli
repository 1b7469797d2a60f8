(** NDJSON protocol of the resident engine (`bonsai serve`).

    Requests are one JSON object per line with an ["op"] field and an
    optional ["id"] echoed back; responses are one object per line with
    ["ok"] and either result fields or a typed ["error"] object whose
    ["class"] mirrors the CLI error taxonomy ({!Bonsai_error.class_name})
    plus the protocol-level classes ["bad-request"] and ["overloaded"].
    Every constructor here produces a single line without the trailing
    newline. *)

type request = {
  req_id : Json.t;  (** echoed verbatim in the response; [Null] if absent *)
  req_op : string;
  req_body : Json.t;  (** the whole request object, for param lookups *)
}

val max_line_bytes : int
(** Requests longer than this are rejected as bad-request before parsing
    (bounds per-request memory). *)

val parse_request : string -> (request, string) result
(** Total: any malformed line becomes [Error message] (render it with
    {!bad_request}). *)

exception Bad_param of string
(** Raised by the typed accessors below on a type mismatch or a missing
    required parameter, and by the engine's dispatch on a key the op
    does not read; the engine converts it to a bad-request response. *)

val string_param : request -> string -> string option
val int_param : request -> string -> int option
val require_string : request -> string -> string

val ok_response : id:Json.t -> op:string -> (string * Json.t) list -> string
val bad_request : id:Json.t -> op:string -> string -> string

val overloaded :
  id:Json.t -> op:string -> retry_after_ms:int -> string -> string
(** The shed-don't-crash response: structured, with a client back-off
    hint. *)

val of_bonsai_error : id:Json.t -> op:string -> Bonsai_error.t -> string
(** Map a typed pipeline error to its response (class name and, for
    budget exhaustion, the phase and tick count). A parse error answers
    with its diagnostic count and line numbers only: the diagnostics'
    messages quote the file, which the server does not echo. *)

val exit_code_of_class : string -> int
(** The exit code [bonsai request] uses for a response's error class:
    identical to the one-shot CLI taxonomy for pipeline classes, 124
    (CLI misuse) for bad-request, 11 for overloaded (scripts retry on
    exactly that), internal's code for anything unrecognized. *)
