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
  net : Device.network;
  fibs : entry Prefix_trie.t array;  (** one trie per router *)
  origin : (Prefix.t * int) list;  (** class prefix -> destination router *)
  mutable entries : int;
  mutable ecs : int;
  mutable unknown : Prefix.t list;
}

type hop_result =
  | Delivered of int list
  | Dropped of int list
  | Looped of int list

let detect_protocol (net : Device.network) =
  if
    Array.exists
      (fun (r : Device.router) ->
        r.Device.ospf_links <> []
        || r.Device.static_routes <> []
        || r.Device.redistribute <> [])
      net.Device.routers
  then `Multi
  else `Bgp

(* The data-plane ACL fold: a packet towards [prefix] leaving [u] for
   next hop [v] is dropped by [u]'s outbound ACL on that interface. The
   control plane already folds the same ACL into BGP route propagation
   (Compile.bgp_policy), but OSPF- and static-derived next hops carry no
   such filter — the FIB is where the two planes meet. [None] permits,
   so ACL-free networks are untouched. *)
let split_acl (net : Device.network) u prefix nhs =
  List.partition
    (fun v -> Acl.permits (Device.acl_for net.Device.routers.(u) v) prefix)
    nhs

let class_fib (net : Device.network) (ec : Ecs.ec) (sol : 'a Solution.t) =
  let n = Graph.n_nodes net.Device.graph in
  let entries = ref [] in
  for u = n - 1 downto 0 do
    match Solution.fwd sol u with
    | [] -> ()
    | fwd ->
      let permitted, dropped =
        split_acl net u ec.Ecs.ec_prefix (List.map snd fwd)
      in
      entries :=
        ( u,
          {
            e_prefix = ec.Ecs.ec_prefix;
            e_next_hops = permitted;
            e_acl_dropped = dropped;
          } )
        :: !entries
  done;
  {
    cf_prefix = ec.Ecs.ec_prefix;
    cf_origin = sol.Solution.srp.Srp.dest;
    cf_entries = !entries;
  }

let compile_ec ?(protocol = `Bgp) ?budget (net : Device.network)
    (ec : Ecs.ec) =
  match ec.Ecs.ec_origins with
  | [ dest ] -> (
    Option.iter (fun b -> Budget.tick b ~phase:"dataplane") budget;
    let solved = function
      | Ok (sol, _) -> `Compiled (class_fib net ec sol)
      | Error (`Budget ((info : Budget.info), _)) ->
        raise (Budget.Exhausted info)
      | Error (`Diverged _) -> `Unsolved
    in
    let dest_prefix = ec.Ecs.ec_prefix in
    match protocol with
    | `Bgp -> solved (Solver.solve ?budget (Compile.bgp_srp net ~dest ~dest_prefix))
    | `Multi ->
      solved (Solver.solve ?budget (Compile.multi_srp net ~dest ~dest_prefix)))
  | _ -> `Anycast

let of_network ?(protocol = `Bgp) ?budget (net : Device.network) =
  let n = Graph.n_nodes net.Device.graph in
  let t =
    {
      net;
      fibs = Array.init n (fun _ -> Prefix_trie.create ());
      origin = [];
      entries = 0;
      ecs = 0;
      unknown = [];
    }
  in
  let origins = ref [] in
  List.iter
    (fun ec ->
      match compile_ec ~protocol ?budget net ec with
      | `Compiled cf ->
        t.ecs <- t.ecs + 1;
        origins := (cf.cf_prefix, cf.cf_origin) :: !origins;
        List.iter
          (fun (u, e) ->
            Prefix_trie.add t.fibs.(u) e.e_prefix e;
            t.entries <- t.entries + 1)
          cf.cf_entries
      | `Unsolved ->
        (match ec.Ecs.ec_origins with
        | [ dest ] -> origins := (ec.Ecs.ec_prefix, dest) :: !origins
        | _ -> ());
        t.unknown <- ec.Ecs.ec_prefix :: t.unknown
      | `Anycast -> ())
    (Ecs.compute net);
  { t with origin = !origins; unknown = List.rev t.unknown }

let fib t u =
  Prefix_trie.bindings t.fibs.(u)
  |> List.map (fun (_, e) -> (e.e_prefix, e.e_next_hops))
  |> List.sort (fun (p, _) (q, _) -> Prefix.compare p q)

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

(* Shared FIB walk: [lookup u] gives the next hops for the traced
   address at [u]; [dest] is its destination router (None: no class
   covers it — every walk ends in a drop). Used both by the whole-table
   tracer below and by the per-class traces of {!Dp_bisim}. *)
let walk ~all ~lookup ~dest src =
  let rec go u path seen =
    if Some u = dest then [ Delivered (List.rev (u :: path)) ]
    else if List.mem u seen then [ Looped (List.rev (u :: path)) ]
    else
      match lookup u with
      | [] -> [ Dropped (List.rev (u :: path)) ]
      | nh :: rest ->
        let nexts = if all then nh :: rest else [ nh ] in
        List.concat_map (fun v -> go v (u :: path) (u :: seen)) nexts
  in
  go src [] []

let trace_gen ~all t ~src addr =
  walk ~all ~lookup:(fun u -> lookup t u addr) ~dest:(dest_of t addr) src

let trace t ~src addr =
  match trace_gen ~all:false t ~src addr with
  | [ r ] -> r
  | _ -> assert false

let trace_all t ~src addr = trace_gen ~all:true t ~src addr

let n_entries t = t.entries
let ecs_solved t = t.ecs
let unknown_classes t = t.unknown

let ec_of_prefix t p = Ecs.of_prefix t.net p

let ranges_of_prefix t p =
  match ec_of_prefix t p with
  | Some ec -> Ecs.ranges t.net ec
  | None -> [ p ]

let addresses_via t u v =
  Prefix_trie.bindings t.fibs.(u)
  |> List.fold_left
       (fun acc (_, e) ->
         if List.mem v e.e_next_hops then
           Addr_set.union acc
             (Addr_set.of_prefixes (ranges_of_prefix t e.e_prefix))
         else acc)
       Addr_set.empty

let addresses_delivered t ~src ~dst =
  List.fold_left
    (fun acc (p, origin) ->
      if origin <> dst then acc
      else
        let addr = p.Prefix.addr in
        let delivered =
          List.exists
            (function Delivered _ -> true | _ -> false)
            (trace_all t ~src addr)
        in
        if delivered then
          Addr_set.union acc (Addr_set.of_prefixes (ranges_of_prefix t p))
        else acc)
    Addr_set.empty t.origin
