(* Minimal JSON for the serve protocol. The engine must survive arbitrary
   bytes on the wire (the @fuzz property feeds it random garbage), so the
   parser is total: every failure is a [Error msg], recursion depth is
   bounded, and nothing here raises on malformed input. No external JSON
   dependency — the container pins the package set. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Adversarial nesting would otherwise overflow the parser stack. *)
let max_depth = 64

exception Bad of string

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> raise (Bad (Printf.sprintf "expected %c, found %c" ch x))
  | None -> raise (Bad (Printf.sprintf "expected %c, found end of input" ch))

let literal c word v =
  let n = String.length word in
  if
    c.pos + n <= String.length c.s
    && String.equal (String.sub c.s c.pos n) word
  then begin
    c.pos <- c.pos + n;
    v
  end
  else raise (Bad ("invalid literal at offset " ^ string_of_int c.pos))

let hex_digit = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
  | _ -> raise (Bad "invalid \\u escape")

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> raise (Bad "unterminated string")
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | None -> raise (Bad "unterminated escape")
      | Some ch ->
        advance c;
        (match ch with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if c.pos + 4 > String.length c.s then
            raise (Bad "truncated \\u escape");
          let v =
            (hex_digit c.s.[c.pos] lsl 12)
            lor (hex_digit c.s.[c.pos + 1] lsl 8)
            lor (hex_digit c.s.[c.pos + 2] lsl 4)
            lor hex_digit c.s.[c.pos + 3]
          in
          c.pos <- c.pos + 4;
          (* UTF-8 encode the code point; surrogate pairs are passed
             through as two 3-byte sequences (lossy but total) *)
          if v < 0x80 then Buffer.add_char buf (Char.chr v)
          else if v < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (v lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (v lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((v lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
          end
        | _ -> raise (Bad "invalid escape"));
        go ())
    | Some ch when Char.code ch < 0x20 -> raise (Bad "control byte in string")
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num ch | None -> false) do
    advance c
  done;
  let text = String.sub c.s start (c.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> raise (Bad ("invalid number " ^ text)))

let rec parse_value c ~depth =
  if depth > max_depth then raise (Bad "nesting too deep");
  skip_ws c;
  match peek c with
  | None -> raise (Bad "empty input")
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [ parse_value c ~depth:(depth + 1) ] in
      skip_ws c;
      while peek c = Some ',' do
        advance c;
        items := parse_value c ~depth:(depth + 1) :: !items;
        skip_ws c
      done;
      expect c ']';
      List (List.rev !items)
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let field () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c ~depth:(depth + 1) in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws c;
      while peek c = Some ',' do
        advance c;
        fields := field () :: !fields;
        skip_ws c
      done;
      expect c '}';
      Obj (List.rev !fields)
    end
  | Some ('0' .. '9' | '-') -> parse_number c
  | Some ch -> raise (Bad (Printf.sprintf "unexpected character %C" ch))

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c ~depth:0 with
  | v ->
    skip_ws c;
    if c.pos < String.length s then
      Error
        (Printf.sprintf "trailing bytes after value at offset %d" c.pos)
    else Ok v
  | exception Bad m -> Error m

(* --- printing -------------------------------------------------------- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.add_char buf '"'

(* The shortest decimal that parses back to [f], always with a '.' or an
   exponent so that it reads back as a [Float], never as an [Int]. *)
let float_repr f =
  let rec go digits =
    let s = Printf.sprintf "%.*g" digits f in
    if digits >= 17 || Float.equal (float_of_string s) f then s
    else go (digits + 1)
  in
  let s = go 1 in
  if String.exists (function '.' | 'e' -> true | _ -> false) s then s
  else s ^ ".0"

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      (* total: JSON has no nan/infinity literals *)
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null"
    | String s -> escape_into buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- accessors ------------------------------------------------------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Obj x, Obj y ->
    List.equal
      (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
      x y
  | _ -> false
