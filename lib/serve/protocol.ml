(* NDJSON request/response framing for `bonsai serve`.

   One request per line: {"id": ..., "op": "compress", ...params}. One
   response per line, echoing the request id: {"id": ..., "op": ...,
   "ok": true, ...result} or {"id": ..., "op": ..., "ok": false,
   "error": {"class": ..., "message": ..., ...}}. Error classes extend
   the CLI's typed taxonomy (Bonsai_error.class_name / exit codes) with
   two protocol-level classes: "bad-request" (unparsable or ill-typed
   request, or one with a parameter its op does not read — the request
   never reached the pipeline) and "overloaded"
   (the admission queue was full; the response carries a retry hint and
   the server keeps running). *)

type request = {
  req_id : Json.t;  (** echoed verbatim in the response; [Null] if absent *)
  req_op : string;
  req_body : Json.t;  (** the whole request object, for param lookups *)
}

let max_line_bytes = 1 lsl 20

let parse_request line =
  if String.length line > max_line_bytes then
    Error
      (Printf.sprintf "request exceeds %d bytes" max_line_bytes)
  else
    match Json.parse line with
    | Error m -> Error ("invalid JSON: " ^ m)
    | Ok (Json.Obj _ as body) -> (
      let id = Option.value ~default:Json.Null (Json.member "id" body) in
      match Json.member "op" body with
      | Some (Json.String op) when op <> "" ->
        Ok { req_id = id; req_op = op; req_body = body }
      | Some _ -> Error "\"op\" must be a non-empty string"
      | None -> Error "missing \"op\"")
    | Ok _ -> Error "request must be a JSON object"

(* --- typed parameter access ------------------------------------------ *)

exception Bad_param of string

let string_param req key =
  match Json.member key req.req_body with
  | None -> None
  | Some (Json.String s) -> Some s
  | Some _ -> raise (Bad_param (Printf.sprintf "%S must be a string" key))

let int_param req key =
  match Json.member key req.req_body with
  | None -> None
  | Some (Json.Int i) -> Some i
  | Some _ -> raise (Bad_param (Printf.sprintf "%S must be an integer" key))

let require_string req key =
  match string_param req key with
  | Some s -> s
  | None -> raise (Bad_param (Printf.sprintf "missing required %S" key))

(* --- responses ------------------------------------------------------- *)

let response ~id ~op fields =
  Json.to_string
    (Json.Obj (("id", id) :: ("op", Json.String op) :: fields))

let ok_response ~id ~op fields =
  response ~id ~op (("ok", Json.Bool true) :: fields)

let error_response ~id ~op ~cls ?(data = []) message =
  response ~id ~op
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          (("class", Json.String cls)
          :: ("message", Json.String message)
          :: data) );
    ]

let bad_request ~id ~op message = error_response ~id ~op ~cls:"bad-request" message

let overloaded ~id ~op ~retry_after_ms message =
  error_response ~id ~op ~cls:"overloaded"
    ~data:[ ("retry_after_ms", Json.Int retry_after_ms) ]
    message

(* The client-side mapping back: `bonsai request` exits with the same
   code the one-shot CLI command would have. The two protocol-level
   classes get codes outside the pipeline taxonomy: bad-request shares
   cmdliner's CLI-misuse code (124), overloaded gets its own (11) so
   scripts can retry on exactly that. *)
let exit_code_of_class = function
  | "budget-exceeded" ->
    Bonsai_error.exit_code
      (Bonsai_error.Budget_exceeded
         { Budget.phase = ""; ticks = 0; elapsed_s = 0.0; note = None })
  | "parse-error" ->
    Bonsai_error.exit_code (Bonsai_error.Parse_error { diagnostics = [] })
  | "compile-error" -> Bonsai_error.exit_code (Bonsai_error.Compile_error "")
  | "divergence" -> Bonsai_error.exit_code (Bonsai_error.Divergence "")
  | "soundness-break" ->
    Bonsai_error.exit_code (Bonsai_error.Soundness_break "")
  | "certificate-failure" ->
    Bonsai_error.exit_code (Bonsai_error.Certificate_failure "")
  | "bad-request" -> 124
  | "overloaded" -> 11
  | _ -> Bonsai_error.exit_code (Bonsai_error.Internal "")

(* Mirror of the CLI exit-code taxonomy: the same pipeline failure maps
   to the same class name clients already know from `bonsai --help`. A
   parse error gives its line numbers but not its messages: they quote
   the file, and a server must not echo any file a request names. *)
let of_bonsai_error ~id ~op (e : Bonsai_error.t) =
  let data, message =
    match e with
    | Bonsai_error.Budget_exceeded info ->
      ( [
          ("phase", Json.String info.Budget.phase);
          ("ticks", Json.Int info.Budget.ticks);
        ],
        Bonsai_error.to_string e )
    | Bonsai_error.Parse_error { diagnostics } ->
      let n = List.length diagnostics in
      let lines = List.filter (fun l -> l > 0) (List.map fst diagnostics) in
      ( [ ("diagnostics", Json.Int n) ],
        Printf.sprintf "parse error (%d diagnostic%s)%s" n
          (if n = 1 then "" else "s")
          (if lines = [] then ""
           else
             " at line"
             ^ (if List.length lines = 1 then " " else "s ")
             ^ String.concat ", " (List.map string_of_int lines)) )
    | _ -> ([], Bonsai_error.to_string e)
  in
  error_response ~id ~op ~cls:(Bonsai_error.class_name e) ~data message
