type ec = { ec_prefix : Prefix.t; ec_origins : int list }

let trie_of_network net =
  let trie = Prefix_trie.create () in
  List.iter
    (fun (p, v) ->
      Prefix_trie.update trie p (function
        | None -> [ v ]
        | Some vs -> if List.mem v vs then vs else List.sort compare (v :: vs)))
    (Device.originations net);
  trie

let compute net =
  Prefix_trie.bindings (trie_of_network net)
  |> List.map (fun (p, vs) -> { ec_prefix = p; ec_origins = vs })
  |> List.sort (fun a b -> Prefix.compare a.ec_prefix b.ec_prefix)

let count net = List.length (compute net)

let find net = function
  | None -> (
    match compute net with
    | ec :: _ -> ec
    | [] -> failwith "network originates no destination prefixes")
  | Some p -> (
    let p = Prefix.of_string p in
    match
      List.find_opt (fun ec -> Prefix.equal ec.ec_prefix p) (compute net)
    with
    | Some ec -> ec
    | None -> Format.kasprintf failwith "no destination class %a" Prefix.pp p)

let ec_for net addr =
  match Prefix_trie.lpm (trie_of_network net) addr with
  | None -> None
  | Some (p, vs) -> Some { ec_prefix = p; ec_origins = vs }

let ranges net ec =
  let all = compute net in
  let more_specific =
    List.filter_map
      (fun other ->
        if
          (not (Prefix.equal other.ec_prefix ec.ec_prefix))
          && Prefix.subset other.ec_prefix ec.ec_prefix
        then Some other.ec_prefix
        else None)
      all
  in
  (* Recursively split [p] until each piece is either disjoint from every
     more-specific prefix or exactly one of them (excluded). *)
  let rec carve p acc =
    if List.exists (fun q -> Prefix.equal q p || Prefix.subset p q) more_specific
    then acc
    else if not (List.exists (fun q -> Prefix.overlap p q) more_specific) then
      p :: acc
    else
      let lo, hi = Prefix.split p in
      carve lo (carve hi acc)
  in
  List.sort Prefix.compare (carve ec.ec_prefix [])

let single_origin ec =
  match ec.ec_origins with
  | [ v ] -> v
  | _ ->
    invalid_arg
      (Format.asprintf "Ecs.single_origin: %a has %d origins" Prefix.pp
         ec.ec_prefix
         (List.length ec.ec_origins))

let pp ppf ec =
  Format.fprintf ppf "%a@%a" Prefix.pp ec.ec_prefix
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    ec.ec_origins
