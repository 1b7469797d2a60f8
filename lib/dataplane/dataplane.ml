type entry = {
  e_prefix : Prefix.t;
  e_next_hops : int list;
  e_acl_dropped : int list;
}

type class_fib = {
  cf_prefix : Prefix.t;
  cf_origin : int;
  cf_entries : (int * entry) list;
}

type t = {
  fibs : entry Prefix_trie.t array;  (** one trie per router *)
  origin : (Prefix.t * int) list;  (** class prefix -> destination router *)
  entries : int;
  ecs : int;
  unknown : Prefix.t list;
}

let detect_protocol net =
  match Compile.model net with
  | Compile.Model Compile.Bgp -> `Bgp
  | Compile.Model Compile.Multi -> `Multi

(* The data-plane ACL fold: a packet towards the class prefix leaving
   [u] for next hop [v] is dropped by [u]'s outbound ACL on that
   interface ([permits u v] false). The control plane already folds the
   same ACL into BGP route propagation (Compile.bgp_policy), but OSPF-
   and static-derived next hops carry no such filter — the FIB is where
   the two planes meet. An absent ACL permits, so ACL-free networks are
   untouched. *)
let fold_acls ~prefix ~permits (sol : 'a Solution.t) =
  let entries = ref [] in
  for u = Graph.n_nodes sol.Solution.srp.Srp.graph - 1 downto 0 do
    match Solution.fwd sol u with
    | [] -> ()
    | fwd ->
      let permitted, dropped =
        List.partition (permits u) (List.map snd fwd)
      in
      entries :=
        ( u,
          {
            e_prefix = prefix;
            e_next_hops = permitted;
            e_acl_dropped = dropped;
          } )
        :: !entries
  done;
  {
    cf_prefix = prefix;
    cf_origin = sol.Solution.srp.Srp.dest;
    cf_entries = !entries;
  }

let class_fib (net : Device.network) (ec : Ecs.ec) sol =
  let prefix = ec.Ecs.ec_prefix in
  fold_acls ~prefix
    ~permits:(fun u v ->
      Acl.permits (Device.acl_for net.Device.routers.(u) v) prefix)
    sol

(* Class FIBs kept per class key (Compile.keep), for keys several
   classes share: equal keys solve the same SRP and fold the same ACL
   verdicts, so one FIB serves each of them under its own prefix. An
   abstract FIB is kept with the identity of the abstraction it was
   compiled from and serves only that one. *)
type fib = [ `Compiled of class_fib | `Unsolved ]

(* What tells one abstraction from another up to [dest_prefix]: its
   arrays, compared physically, as a shared compression row carries
   them (Bonsai_api.compress). A hand-built or corrupted copy differs in
   some array and is compiled on its own. Kept without the universe, so
   a kept FIB does not hold on to a finished compression's BDDs. *)
type abs_id = {
  a_dest : int;
  a_group_of : int array;
  a_groups : int list array;
  a_copies : int array;
  a_graph : Graph.t;
  a_abs_dest : int;
}

let abs_id (t : Abstraction.t) =
  {
    a_dest = t.Abstraction.dest;
    a_group_of = t.Abstraction.group_of;
    a_groups = t.Abstraction.groups;
    a_copies = t.Abstraction.copies;
    a_graph = t.Abstraction.abs_graph;
    a_abs_dest = t.Abstraction.abs_dest;
  }

let same_abstraction a b =
  a.a_dest = b.a_dest
  && a.a_group_of == b.a_group_of
  && a.a_groups == b.a_groups
  && a.a_copies == b.a_copies
  && a.a_graph == b.a_graph
  && a.a_abs_dest = b.a_abs_dest

type Compile.shared +=
  | Concrete of { multi : bool; fib : fib }
  | Abstract of { multi : bool; abs : abs_id; abs_fib : fib }

let is_multi : type a. a Compile.model -> bool = function
  | Compile.Bgp -> false
  | Compile.Multi -> true

let restamp prefix : fib -> fib = function
  | `Compiled cf when not (Prefix.equal cf.cf_prefix prefix) ->
    `Compiled
      {
        cf with
        cf_prefix = prefix;
        cf_entries =
          List.map (fun (u, e) -> (u, { e with e_prefix = prefix })) cf.cf_entries;
      }
  | fib -> fib

(* One FIB per slot (concrete or abstract, per model) of a key. *)
let same_slot a b =
  match (a, b) with
  | Concrete x, Concrete y -> Bool.equal x.multi y.multi
  | Abstract x, Abstract y -> Bool.equal x.multi y.multi
  | _ -> false

(* [find] the kept FIB of the key, else [compile] one and keep it in its
   slot. *)
let shared_fib net key ~prefix ~find ~entry compile =
  let kept = Compile.kept net key in
  match List.find_map find kept with
  | Some fib -> restamp prefix fib
  | None ->
    let fib = compile () in
    let e = entry fib in
    Compile.keep net key (e :: List.filter (fun s -> not (same_slot s e)) kept);
    fib

let compile_ec ?budget model (net : Device.network) (ec : Ecs.ec) =
  match ec.Ecs.ec_origins with
  | [ dest ] ->
    Option.iter (fun b -> Budget.tick b ~phase:"dataplane") budget;
    let prefix = ec.Ecs.ec_prefix and multi = is_multi model in
    let solve () =
      match
        Solver.solve ?budget (Compile.srp model net ~dest ~dest_prefix:prefix)
      with
      | Ok (sol, _) -> `Compiled (class_fib net ec sol)
      | Error (`Budget ((info : Budget.info), _)) ->
        raise (Budget.Exhausted info)
      | Error (`Diverged _) -> `Unsolved
    in
    (shared_fib net
       (Compile.class_key net ~dest ~dest_prefix:prefix)
       ~prefix
       ~find:(function
         | Concrete c when Bool.equal c.multi multi -> Some c.fib
         | _ -> None)
       ~entry:(fun fib -> Concrete { multi; fib })
       solve
      :> [ fib | `Anycast ])
  | _ -> `Anycast

(* Each abstract edge folds the ACL of a representative concrete edge:
   sound because transfer-equivalence of the refined partition makes
   every member edge's ACL verdict for this destination equal. *)
let compile_abstract ?budget model (t : Abstraction.t) =
  let net = t.Abstraction.net and prefix = t.Abstraction.dest_prefix in
  let multi = is_multi model and id = abs_id t in
  shared_fib net
    (Compile.class_key net ~dest:t.Abstraction.dest ~dest_prefix:prefix)
    ~prefix
    ~find:(function
      | Abstract a when Bool.equal a.multi multi && same_abstraction a.abs id ->
        Some a.abs_fib
      | _ -> None)
    ~entry:(fun abs_fib -> Abstract { multi; abs = id; abs_fib })
  @@ fun () ->
  match Solver.solve ?budget (Abstraction.srp model t) with
  | Ok (sol, _) ->
    let repr_edge = Abstraction.edge_repr_fun t in
    let routers = net.Device.routers in
    `Compiled
      (fold_acls ~prefix
         ~permits:(fun u_hat v_hat ->
           match repr_edge u_hat v_hat with
           | u, v -> Acl.permits (Device.acl_for routers.(u) v) prefix
           | exception Not_found -> true)
         sol)
  | Error (`Budget (info, _)) -> raise (Budget.Exhausted info)
  | Error (`Diverged _) -> `Unsolved

let class_lookup ~n cf =
  let hops = Array.make n [] in
  List.iter (fun (u, e) -> hops.(u) <- e.e_next_hops) cf.cf_entries;
  Array.get hops

let of_network ?budget (net : Device.network) ecs =
  let (Compile.Model model) = Compile.model net in
  let fibs =
    Array.init (Graph.n_nodes net.Device.graph) (fun _ -> Prefix_trie.create ())
  in
  let add t ec =
    match compile_ec ?budget model net ec with
    | `Compiled cf ->
      List.iter (fun (u, e) -> Prefix_trie.add fibs.(u) e.e_prefix e)
        cf.cf_entries;
      {
        t with
        origin = (cf.cf_prefix, cf.cf_origin) :: t.origin;
        entries = t.entries + List.length cf.cf_entries;
        ecs = t.ecs + 1;
      }
    | `Unsolved ->
      {
        t with
        origin = (ec.Ecs.ec_prefix, Ecs.single_origin ec) :: t.origin;
        unknown = ec.Ecs.ec_prefix :: t.unknown;
      }
    | `Anycast -> t
  in
  let t =
    List.fold_left add
      { fibs; origin = []; entries = 0; ecs = 0; unknown = [] }
      ecs
  in
  { t with unknown = List.rev t.unknown }

let fib_entries t u =
  Prefix_trie.bindings t.fibs.(u)
  |> List.map snd
  |> List.sort (fun e e' -> Prefix.compare e.e_prefix e'.e_prefix)

let lookup t u addr =
  match Prefix_trie.lpm t.fibs.(u) addr with
  | Some (_, e) -> e.e_next_hops
  | None -> []

let dest_of t addr =
  List.fold_left
    (fun best (p, d) ->
      if Prefix.mem addr p then
        match best with
        | Some ((q : Prefix.t), _) when q.Prefix.len >= p.Prefix.len -> best
        | _ -> Some (p, d)
      else best)
    None t.origin
  |> Option.map snd

let trace_gen ~all t ~src addr =
  Forwarding.walk ~all
    ~lookup:(fun u -> lookup t u addr)
    ~dest:(dest_of t addr) src

let trace t ~src addr =
  match trace_gen ~all:false t ~src addr with
  | [ r ] -> r
  | _ -> assert false

let trace_all t ~src addr = trace_gen ~all:true t ~src addr

let n_entries t = t.entries
let ecs_solved t = t.ecs
let unknown_classes t = t.unknown
