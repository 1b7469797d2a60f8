type severity = Error | Warning | Info

let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

type loc = {
  router : string option;
  neighbor : string option;
  rm_name : string option;
  clause : int option;
  line : int option;
}

let no_loc =
  { router = None; neighbor = None; rm_name = None; clause = None; line = None }

let at_router ?neighbor ?line router =
  { no_loc with router = Some router; neighbor; line }

type t = { check : string; severity : severity; loc : loc; message : string }

let make ~check ~severity ?(loc = no_loc) message =
  { check; severity; loc; message }

(* Report order: source position first (diagnostics read like compiler
   output over the config file — findings without a line sort last), then
   the check id, then severity and the remaining location fields for a
   total, deterministic order. *)
let opt_compare cmp a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> 1
  | Some _, None -> -1
  | Some a, Some b -> cmp a b

let loc_compare a b =
  let c = opt_compare String.compare a.router b.router in
  if c <> 0 then c
  else
    let c = opt_compare String.compare a.neighbor b.neighbor in
    if c <> 0 then c
    else
      let c = opt_compare String.compare a.rm_name b.rm_name in
      if c <> 0 then c else opt_compare Int.compare a.clause b.clause

let compare a b =
  let c = opt_compare Int.compare a.loc.line b.loc.line in
  if c <> 0 then c
  else
    let c = String.compare a.check b.check in
    if c <> 0 then c
    else
      let c =
        Int.compare (severity_rank b.severity) (severity_rank a.severity)
      in
      if c <> 0 then c
      else
        let c = loc_compare a.loc b.loc in
        if c <> 0 then c else String.compare a.message b.message

let pp_loc ppf (l : loc) =
  let parts = ref [] in
  let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  Option.iter (fun r -> add "router %s" r) l.router;
  Option.iter (fun n -> add "-> %s" n) l.neighbor;
  Option.iter (fun n -> add "route-map %s" n) l.rm_name;
  Option.iter (fun i -> add "clause %d" (i + 1)) l.clause;
  Option.iter (fun n -> add "line %d" n) l.line;
  match List.rev !parts with
  | [] -> Format.pp_print_string ppf "network"
  | ps -> Format.pp_print_string ppf (String.concat " " ps)

let pp ppf d =
  Format.fprintf ppf "%s: [%s] %a: %s"
    (severity_to_string d.severity)
    d.check pp_loc d.loc d.message

let to_json d =
  let opt k f = function None -> [] | Some x -> [ (k, f x) ] in
  let str s = Json.String s in
  Json.Obj
    ([
       ("check", str d.check);
       ("severity", str (severity_to_string d.severity));
     ]
    @ opt "router" str d.loc.router
    @ opt "neighbor" str d.loc.neighbor
    @ opt "route_map" str d.loc.rm_name
    @ opt "clause" (fun i -> Json.Int (i + 1)) d.loc.clause
    @ opt "line" (fun n -> Json.Int n) d.loc.line
    @ [ ("message", str d.message) ])
