type 'a t = {
  srp : 'a Srp.t;
  labels : 'a option array;
  fwd_table : (int * int) list array option;
}

let of_labels srp labels = { srp; labels; fwd_table = None }

let with_forwarding srp labels table =
  { srp; labels; fwd_table = Some table }

let label s u = s.labels.(u)

let equal_labels s s' =
  let eq = s.srp.Srp.attr_equal in
  Array.length s.labels = Array.length s'.labels
  && Array.for_all2
       (fun a b ->
         match (a, b) with
         | None, None -> true
         | Some a, Some b -> eq a b
         | _ -> false)
       s.labels s'.labels

let choices s u =
  let srp = s.srp in
  Array.to_list (Graph.succ srp.Srp.graph u)
  |> List.filter_map (fun v ->
         match srp.Srp.trans u v s.labels.(v) with
         | Some a -> Some ((u, v), a)
         | None -> None)

let node_violation s u =
  let srp = s.srp in
  if u = srp.Srp.dest then
    match s.labels.(u) with
    | Some a when srp.Srp.attr_equal a srp.Srp.init -> None
    | _ -> Some "destination is not labeled with the initial attribute"
  else
    let cs = choices s u in
    match (s.labels.(u), cs) with
    | None, [] -> None
    | Some _, [] -> Some "labeled but has no choices"
    | None, _ :: _ -> Some "unlabeled but has choices"
    | Some a, _ :: _ ->
      if not (List.exists (fun (_, c) -> srp.Srp.attr_equal c a) cs) then
        Some "label is not an offered attribute"
      else if List.exists (fun (_, c) -> srp.Srp.compare c a < 0) cs then
        Some "a strictly better choice exists"
      else None

let stability_violations s =
  let n = Graph.n_nodes s.srp.Srp.graph in
  let acc = ref [] in
  for u = n - 1 downto 0 do
    match node_violation s u with
    | Some why -> acc := (u, why) :: !acc
    | None -> ()
  done;
  !acc

let is_stable s = stability_violations s = []

let fwd s u =
  match s.fwd_table with
  | Some table -> table.(u)
  | None -> (
    match s.labels.(u) with
    | None -> []
    | Some a ->
      choices s u
      |> List.filter_map (fun (e, c) ->
             if s.srp.Srp.compare c a = 0 then Some e else None))

let outcomes s =
  Forwarding.outcomes
    ~n:(Graph.n_nodes s.srp.Srp.graph)
    ~lookup:(fun u -> List.map snd (fwd s u))
    ~dest:s.srp.Srp.dest

let reaches s =
  let outcome = outcomes s in
  fun u -> Forwarding.reaches (outcome u)

let pp ppf s =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun u l ->
      Format.fprintf ppf "%s: %a@,"
        (Graph.name s.srp.Srp.graph u)
        (Srp.pp_label s.srp) l)
    s.labels;
  Format.fprintf ppf "@]"
