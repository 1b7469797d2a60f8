type cond = Match_community of int list | Match_prefix of Prefix.t list

type action =
  | Set_local_pref of int
  | Add_community of int
  | Delete_community of int
  | Set_med of int

type verdict = Permit | Deny

type clause = { verdict : verdict; conds : cond list; actions : action list }
type t = clause list

let cond_equal a b =
  match (a, b) with
  | Match_community x, Match_community y -> List.equal Int.equal x y
  | Match_prefix x, Match_prefix y -> List.equal Prefix.equal x y
  | (Match_community _ | Match_prefix _), _ -> false

let action_equal a b =
  match (a, b) with
  | Set_local_pref x, Set_local_pref y
  | Add_community x, Add_community y
  | Delete_community x, Delete_community y
  | Set_med x, Set_med y ->
    Int.equal x y
  | (Set_local_pref _ | Add_community _ | Delete_community _ | Set_med _), _ ->
    false

let verdict_equal a b =
  match (a, b) with
  | Permit, Permit | Deny, Deny -> true
  | (Permit | Deny), _ -> false

let clause_equal a b =
  a == b
  || verdict_equal a.verdict b.verdict
     && List.equal cond_equal a.conds b.conds
     && List.equal action_equal a.actions b.actions

let equal a b = a == b || List.equal clause_equal a b

let permit_all = [ { verdict = Permit; conds = []; actions = [] } ]
let deny_all = []

(* The evaluator allocates no closure per call: it runs once per BGP
   transfer in the concrete solve. *)
let rec has_any_comm a = function
  | [] -> false
  | c :: cs -> Bgp.has_comm c a || has_any_comm a cs

let rec covers dest = function
  | [] -> false
  | p :: ps -> Prefix.subset dest p || covers dest ps

let cond_holds ~dest a = function
  | Match_community cs -> has_any_comm a cs
  | Match_prefix ps -> covers dest ps

let rec all_hold ~dest a = function
  | [] -> true
  | c :: cs -> cond_holds ~dest a c && all_hold ~dest a cs

let apply_action a = function
  | Set_local_pref lp -> { a with Bgp.lp }
  | Add_community c -> Bgp.add_comm c a
  | Delete_community c -> Bgp.del_comm c a
  | Set_med med -> { a with Bgp.med }

let rec apply_actions a = function
  | [] -> a
  | act :: rest -> apply_actions (apply_action a act) rest

let decide cl a =
  match cl.verdict with
  | Deny -> None
  | Permit -> Some (apply_actions a cl.actions)

let rec eval rm ~dest a =
  match rm with
  | [] -> None
  | cl :: rest ->
    if all_hold ~dest a cl.conds then decide cl a else eval rest ~dest a

(* A prefix condition is static once the destination is fixed. *)
let static_cond ~dest = function
  | Match_prefix ps -> Some (List.exists (fun p -> Prefix.subset dest p) ps)
  | Match_community _ -> None

let relevant rm ~dest =
  List.filter_map
    (fun cl ->
      let keep = ref true in
      let conds =
        List.filter
          (fun c ->
            match static_cond ~dest c with
            | Some true -> false (* always holds: drop the condition *)
            | Some false ->
              keep := false;
              false
            | None -> true)
          cl.conds
      in
      if !keep then Some { cl with conds } else None)
    rm

type compiled = Identity | Drop | Clauses of t

let compile rm ~dest =
  match relevant rm ~dest with
  | [] | { verdict = Deny; conds = []; _ } :: _ -> Drop
  | { verdict = Permit; conds = []; actions = [] } :: _ -> Identity
  | rm -> Clauses rm

(* [relevant] resolved every prefix condition, so only community tests
   remain. *)
let comm_holds a = function
  | Match_community cs -> has_any_comm a cs
  | Match_prefix _ -> invalid_arg "Route_map.apply: unresolved prefix condition"

let rec comms_hold a = function
  | [] -> true
  | c :: cs -> comm_holds a c && comms_hold a cs

let rec apply_clauses rm a =
  match rm with
  | [] -> None
  | cl :: rest ->
    if comms_hold a cl.conds then decide cl a else apply_clauses rest a

let apply c a =
  match c with
  | Identity -> Some a
  | Drop -> None
  | Clauses rm -> apply_clauses rm a

let sort_uniq = List.sort_uniq Int.compare

let local_prefs rm ~dest =
  let sets_lp cl =
    List.exists (function Set_local_pref _ -> true | _ -> false) cl.actions
  in
  if not (List.exists sets_lp rm) then []
  else
    relevant rm ~dest
    |> List.concat_map (fun cl ->
           if cl.verdict = Deny then []
           else
             List.filter_map
               (function Set_local_pref lp -> Some lp | _ -> None)
               cl.actions)
    |> sort_uniq

let communities_matched rm =
  List.concat_map
    (fun cl ->
      List.concat_map
        (function Match_community cs -> cs | Match_prefix _ -> [])
        cl.conds)
    rm
  |> sort_uniq

let communities_set rm =
  List.concat_map
    (fun cl ->
      List.filter_map
        (function
          | Add_community c | Delete_community c -> Some c
          | Set_local_pref _ | Set_med _ -> None)
        cl.actions)
    rm
  |> sort_uniq

let pp_cond ppf = function
  | Match_community cs ->
    Format.fprintf ppf "community {%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      cs
  | Match_prefix ps ->
    Format.fprintf ppf "prefix {%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Prefix.pp)
      ps

let pp_action ppf = function
  | Set_local_pref lp -> Format.fprintf ppf "set lp %d" lp
  | Add_community c -> Format.fprintf ppf "add community %d" c
  | Delete_community c -> Format.fprintf ppf "del community %d" c
  | Set_med m -> Format.fprintf ppf "set med %d" m

let pp ppf rm =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i cl ->
      Format.fprintf ppf "%d %s match [%a] do [%a]@,"
        (10 * (i + 1))
        (match cl.verdict with Permit -> "permit" | Deny -> "deny")
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           pp_cond)
        cl.conds
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           pp_action)
        cl.actions)
    rm;
  Format.fprintf ppf "@]"
