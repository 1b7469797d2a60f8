type t = {
  down_links : (int * int) list;
  down_nodes : int list;
}

type element = Link of int * int | Node of int

let norm_link (u, v) = if u <= v then (u, v) else (v, u)

let link_compare (a, b) (c, d) =
  match Int.compare a c with 0 -> Int.compare b d | r -> r

let link_equal a b = link_compare a b = 0

let make ?(nodes = []) links =
  {
    down_links = List.sort_uniq link_compare (List.map norm_link links);
    down_nodes = List.sort_uniq Int.compare nodes;
  }

let size t = List.length t.down_links + List.length t.down_nodes

let is_empty t =
  match (t.down_links, t.down_nodes) with [], [] -> true | _ -> false

let compare a b =
  match List.compare link_compare a.down_links b.down_links with
  | 0 -> List.compare Int.compare a.down_nodes b.down_nodes
  | r -> r

let equal a b = compare a b = 0

let elements t =
  List.map (fun (u, v) -> Link (u, v)) t.down_links
  @ List.map (fun u -> Node u) t.down_nodes

let of_elements es =
  make
    ~nodes:(List.filter_map (function Node u -> Some u | _ -> None) es)
    (List.filter_map (function Link (u, v) -> Some (u, v) | _ -> None) es)

let mem_node t u = List.exists (Int.equal u) t.down_nodes

let apply g t =
  let b = Graph.Builder.create () in
  for v = 0 to Graph.n_nodes g - 1 do
    ignore (Graph.Builder.add_node b (Graph.name g v))
  done;
  Graph.iter_edges g (fun u v ->
      if
        not
          (List.exists (link_equal (norm_link (u, v))) t.down_links
          || mem_node t u || mem_node t v)
      then Graph.Builder.add_edge b u v);
  Graph.Builder.build b

let all_links g =
  let acc = ref [] in
  Graph.iter_edges g (fun u v ->
      if u < v || not (Graph.has_edge g v u) then acc := norm_link (u, v) :: !acc);
  List.sort_uniq link_compare !acc

let cut_links g =
  if not (Graph.is_connected g) then []
  else
    List.filter
      (fun l -> not (Graph.is_connected (apply g (make [ l ]))))
      (all_links g)

(* k-subsets of [links] in lexicographic order, as scenarios *)
let rec subsets k links =
  if k = 0 then [ [] ]
  else
    match links with
    | [] -> []
    | l :: rest ->
      List.map (fun s -> l :: s) (subsets (k - 1) rest) @ subsets k rest

let enumerate ~k g =
  let links = all_links g in
  List.concat_map
    (fun i -> List.map (fun s -> make s) (subsets i links))
    (List.init k (fun i -> i + 1))

let count ~k g =
  let m = List.length (all_links g) in
  let rec choose m i = if i = 0 then 1 else choose (m - 1) (i - 1) * m / i in
  List.fold_left ( + ) 0 (List.init k (fun i -> choose m (i + 1)))

let sample ~k ~samples ~seed g =
  let links = Array.of_list (all_links g) in
  let m = Array.length links in
  let rng = Random.State.make [| seed; 0xfa17 |] in
  let seen = Hashtbl.create samples in
  let out = ref [] and n_out = ref 0 in
  let add sc =
    if not (Hashtbl.mem seen sc) then begin
      Hashtbl.replace seen sc ();
      out := sc :: !out;
      incr n_out
    end
  in
  List.iter
    (fun l -> if !n_out < samples then add (make [ l ]))
    (cut_links g);
  if m > 0 then begin
    (* give up after enough duplicate draws in a row: the subset space may
       hold fewer than [samples] distinct scenarios *)
    let misses = ref 0 in
    while !n_out < samples && !misses < 64 * samples do
      let size = 1 + Random.State.int rng (max 1 k) in
      let picked = ref [] in
      for _ = 1 to size do
        picked := links.(Random.State.int rng m) :: !picked
      done;
      let sc = make !picked in
      if Hashtbl.mem seen sc then incr misses
      else begin
        misses := 0;
        add sc
      end
    done
  end;
  List.rev !out

let element_equal a b =
  match (a, b) with
  | Link (u, v), Link (u', v') -> Int.equal u u' && Int.equal v v'
  | Node u, Node u' -> Int.equal u u'
  | (Link _ | Node _), _ -> false

let shrink fails sc =
  let rec go sc =
    let es = elements sc in
    let drop_one =
      List.find_map
        (fun e ->
          let smaller =
            of_elements (List.filter (fun e' -> not (element_equal e' e)) es)
          in
          if (not (is_empty smaller)) && fails smaller then Some smaller
          else None)
        es
    in
    match drop_one with Some smaller -> go smaller | None -> sc
  in
  if not (fails sc) then invalid_arg "Scenario.shrink: scenario does not fail";
  go sc

let to_json ~names t =
  Json.List
    (List.map
       (fun (u, v) -> Json.String (Printf.sprintf "%s-%s" (names u) (names v)))
       t.down_links
    @ List.map
        (fun u -> Json.String (Printf.sprintf "node:%s" (names u)))
        t.down_nodes)

let pp ~names ppf t =
  let link (u, v) = Printf.sprintf "%s-%s" (names u) (names v) in
  let node u = Printf.sprintf "node %s" (names u) in
  Format.fprintf ppf "{%s}"
    (String.concat ", "
       (List.map link t.down_links @ List.map node t.down_nodes))
