type rule = { permit : bool; prefix : Prefix.t }
type t = rule list

let equal a b =
  a == b
  || List.equal
       (fun r s -> Bool.equal r.permit s.permit && Prefix.equal r.prefix s.prefix)
       a b

let permits acl dest =
  match acl with
  | None -> true
  | Some rules -> (
    let rec go = function
      | [] -> false (* implicit deny *)
      | r :: rest -> if Prefix.overlap dest r.prefix then r.permit else go rest
    in
    go rules)

let pp ppf rules =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "%s %a@,"
        (if r.permit then "permit" else "deny")
        Prefix.pp r.prefix)
    rules;
  Format.fprintf ppf "@]"
