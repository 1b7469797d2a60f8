type t = {
  names : string array;
  succ : int array array;
  pred : int array array;
  base : int array;
      (* CSR edge index: u's out-edges are [base.(u) .. base.(u+1) - 1], in
         [succ.(u)] order; [base.(n)] is the number of directed edges *)
  mutable by_name : (string, int) Hashtbl.t option;
      (* built by the first [find_by_name]: most graphs (every abstract
         one) are never searched by name. A table, not a closure, so a
         graph stays marshalable. *)
}

let of_succ names succ =
  let n = Array.length names in
  if Array.length succ <> n then invalid_arg "Graph.of_succ: length mismatch";
  let in_deg = Array.make n 0 and base = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let vs = succ.(u) in
    for i = 0 to Array.length vs - 1 do
      let v = vs.(i) in
      if v < 0 || v >= n then invalid_arg "Graph.of_succ: unknown endpoint";
      if v = u then invalid_arg "Graph.of_succ: self-loop";
      if i > 0 && vs.(i - 1) >= v then
        invalid_arg "Graph.of_succ: successors not strictly ascending";
      in_deg.(v) <- in_deg.(v) + 1
    done;
    base.(u + 1) <- base.(u) + Array.length vs
  done;
  let pred = Array.map (fun d -> Array.make d 0) in_deg in
  (* sources are visited in ascending order, so each [pred] array comes
     out sorted; [in_deg] counts the filled slots back up *)
  Array.fill in_deg 0 n 0;
  for u = 0 to n - 1 do
    let vs = succ.(u) in
    for i = 0 to Array.length vs - 1 do
      let v = vs.(i) in
      pred.(v).(in_deg.(v)) <- u;
      in_deg.(v) <- in_deg.(v) + 1
    done
  done;
  { names; succ; pred; base; by_name = None }

module Builder = struct
  type graph = t

  type t = {
    mutable b_names : string list; (* reversed *)
    mutable b_n : int;
    mutable b_edges : (int * int) list; (* may repeat; deduplicated by [build] *)
  }

  let create () = { b_names = []; b_n = 0; b_edges = [] }

  let add_node b name =
    let id = b.b_n in
    b.b_names <- name :: b.b_names;
    b.b_n <- id + 1;
    id

  let add_edge b u v =
    if u = v then invalid_arg "Graph.Builder.add_edge: self-loop";
    if u < 0 || u >= b.b_n || v < 0 || v >= b.b_n then
      invalid_arg "Graph.Builder.add_edge: unknown endpoint";
    b.b_edges <- (u, v) :: b.b_edges

  let add_link b u v =
    add_edge b u v;
    add_edge b v u

  let build b : graph =
    let n = b.b_n in
    let out = Array.make n [] in
    List.iter (fun (u, v) -> out.(u) <- v :: out.(u)) b.b_edges;
    of_succ
      (Array.of_list (List.rev b.b_names))
      (Array.map (fun vs -> Array.of_list (List.sort_uniq Int.compare vs)) out)
end

let of_links ~n links =
  let b = Builder.create () in
  for i = 0 to n - 1 do
    ignore (Builder.add_node b (Printf.sprintf "n%d" i))
  done;
  List.iter (fun (u, v) -> Builder.add_link b u v) links;
  Builder.build b

let n_nodes g = Array.length g.names
let n_edges g = g.base.(n_nodes g)
let name g i = g.names.(i)
let find_by_name g s =
  let tbl =
    match g.by_name with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create (n_nodes g) in
      Array.iteri (fun i s -> Hashtbl.replace tbl s i) g.names;
      g.by_name <- Some tbl;
      tbl
  in
  Hashtbl.find_opt tbl s

let succ g i = g.succ.(i)
let pred g i = g.pred.(i)
let edge_base g u = g.base.(u)

(* Binary search for [v] in the ascending [succ.(u)]. *)
let edge_index g u v =
  if u < 0 || u >= n_nodes g then -1
  else begin
    let a = g.succ.(u) in
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if a.(mid) < v then lo := mid + 1 else hi := mid
    done;
    if !lo < Array.length a && a.(!lo) = v then g.base.(u) + !lo else -1
  end

let has_edge g u v = edge_index g u v >= 0

let iter_edges g f = Array.iteri (fun u vs -> Array.iter (fun v -> f u v) vs) g.succ

let edges g =
  let acc = ref [] in
  for u = n_nodes g - 1 downto 0 do
    let vs = g.succ.(u) in
    for i = Array.length vs - 1 downto 0 do
      acc := (u, vs.(i)) :: !acc
    done
  done;
  !acc

let n_links g =
  let count = ref 0 in
  iter_edges g (fun u v -> if u < v || not (has_edge g v u) then incr count);
  !count

let fold_nodes g ~init ~f =
  let acc = ref init in
  for i = 0 to n_nodes g - 1 do
    acc := f !acc i
  done;
  !acc

let degree g i = Array.length g.succ.(i)

let is_connected g =
  let n = n_nodes g in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    let visit v =
      if not seen.(v) then begin
        seen.(v) <- true;
        stack := v :: !stack
      end
    in
    let rec loop () =
      match !stack with
      | [] -> ()
      | u :: rest ->
        stack := rest;
        Array.iter visit g.succ.(u);
        Array.iter visit g.pred.(u);
        loop ()
    in
    loop ();
    Array.for_all Fun.id seen
  end

let pp_stats ppf g =
  Format.fprintf ppf "nodes=%d directed-edges=%d links=%d" (n_nodes g)
    (n_edges g) (n_links g)
