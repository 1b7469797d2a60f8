(* Data-plane bisimulation: the paper's control-plane bisimulation
   (Figure 4) implies that concrete and compressed networks agree on the
   stable solution of every destination class — so the forwarding tables
   compiled from those solutions must agree too, up to the topology
   abstraction f. This module spot-checks exactly that consequence: per
   class, compile the concrete class FIB and the abstract class FIB (ACLs
   folded through representative edges on the abstract side) and trace
   the class's address from every role representative through both.
   Delivery, drop and loop behavior must coincide; the first divergence
   is returned as a typed (router, prefix, path) witness. *)

type refutation = {
  rf_router : int;  (** the role representative whose traces diverge *)
  rf_prefix : Prefix.t;
  rf_concrete : Dataplane.hop_result;
  rf_abstract : Dataplane.hop_result;
}

exception Found of refutation

type verdict =
  | Equivalent of { classes : int; traces : int }
  | Refuted of refutation
  | Incomplete of {
      classes : int;
      traces : int;
      unknown : Prefix.t list;
      info : Budget.info;
    }

(* Outcome summary of the ECMP path set from one router: does any path
   deliver / drop / loop? Comparing summaries (not raw paths) is what
   makes the check robust to the legitimate differences bisimilar FIBs
   may show — ECMP enumeration order, intra-group hops that vanish
   under f. Computed as a colored DFS over the forwarding relation in
   O(nodes + edges) per class: enumerating ECMP paths (à la trace_all)
   is exponential in path diversity and melts down on the WAN. The
   three flags are exact graph properties — a path delivers iff it
   reaches [dest], drops iff it reaches a router with no next hop, and
   loops iff it enters a cycle (a gray-node hit during the DFS
   witnesses a real cycle through that node). *)
let outcome_flags ~lookup ~dest ~n =
  let memo = Array.make n None in
  let on_stack = Array.make n false in
  let rec go u =
    if u = dest then (true, false, false)
    else
      match memo.(u) with
      | Some f -> f
      | None ->
        if on_stack.(u) then (false, false, true)
        else (
          on_stack.(u) <- true;
          let f =
            match lookup u with
            | [] -> (false, true, false)
            | nhs ->
              List.fold_left
                (fun (d, r, l) v ->
                  let d', r', l' = go v in
                  (d || d', r || r', l || l'))
                (false, false, false) nhs
          in
          on_stack.(u) <- false;
          memo.(u) <- Some f;
          f)
  in
  go

(* The class FIB indexed by router once, so each lookup is O(1). *)
let lookup_of_class ~n (cf : Dataplane.class_fib) =
  let hops = Array.make n [] in
  List.iter
    (fun (u, (e : Dataplane.entry)) -> hops.(u) <- e.Dataplane.e_next_hops)
    cf.Dataplane.cf_entries;
  fun u -> hops.(u)

(* The abstract class FIB: solve the abstract SRP and fold the ACLs of
   representative concrete edges into the abstract next hops (sound
   because transfer-equivalence of the refined partition makes every
   member edge's ACL verdict for this destination equal). *)
let abstract_lookup ~protocol ?budget (t : Abstraction.t) =
  let net = t.Abstraction.net in
  let repr_edge = Abstraction.edge_repr_fun t in
  let permits u_hat v_hat =
    match repr_edge u_hat v_hat with
    | u, v ->
      Acl.permits
        (Device.acl_for net.Device.routers.(u) v)
        t.Abstraction.dest_prefix
    | exception Not_found -> true
  in
  let of_sol (type a) (sol : a Solution.t) u_hat =
    List.filter (permits u_hat) (List.map snd (Solution.fwd sol u_hat))
  in
  match protocol with
  | `Bgp -> (
    match Solver.solve ?budget (Abstraction.bgp_srp t) with
    | Ok (sol, _) -> `Solved (of_sol sol)
    | Error (`Budget (info, _)) -> raise (Budget.Exhausted info)
    | Error (`Diverged _) -> `Diverged)
  | `Multi -> (
    match Solver.solve ?budget (Abstraction.multi_srp t) with
    | Ok (sol, _) -> `Solved (of_sol sol)
    | Error (`Budget (info, _)) -> raise (Budget.Exhausted info)
    | Error (`Diverged _) -> `Diverged)

(* One class: trace from every role representative through both FIBs.
   [`Ok traces] | [`Mismatch refutation] | [`Unknown] (concrete control
   plane diverged — nothing to compare against). *)
let check_class ~protocol ?budget (net : Device.network)
    (r : Bonsai_api.ec_result) =
  let t = r.Bonsai_api.abstraction in
  let ec = r.Bonsai_api.ec in
  if Abstraction.is_identity t then
    (* the identity abstraction IS the concrete network; its data plane
       is the concrete data plane by construction *)
    `Ok 0
  else
    match Dataplane.compile_ec ~protocol ?budget net ec with
    | `Anycast -> `Ok 0
    | `Unsolved -> `Unknown
    | `Compiled cf -> (
      let concrete_lookup =
        lookup_of_class ~n:(Graph.n_nodes net.Device.graph) cf
      in
      let abs_lookup =
        match abstract_lookup ~protocol ?budget t with
        | `Solved l -> l
        | `Diverged ->
          (* the abstract control plane has no stable solution where the
             concrete one does: every abstract trace drops immediately,
             so the per-representative comparison below refutes with the
             concrete delivery as witness *)
          fun _ -> []
      in
      let concrete_flags =
        outcome_flags ~lookup:concrete_lookup
          ~dest:cf.Dataplane.cf_origin
          ~n:(Graph.n_nodes net.Device.graph)
      in
      let abs_flags =
        outcome_flags ~lookup:abs_lookup ~dest:t.Abstraction.abs_dest
          ~n:(Abstraction.n_abstract t)
      in
      let refutation = ref None in
      let traces = ref 0 in
      let n_abs = Abstraction.n_abstract t in
      let u_hat = ref 0 in
      while !refutation = None && !u_hat < n_abs do
        let rep = Abstraction.repr_of_abs t !u_hat in
        traces := !traces + 2;
        if concrete_flags rep <> abs_flags (Abstraction.f t rep) then (
          (* the summaries diverge; materialize one witness path per
             side (first ECMP branch — enumeration is only safe now
             that we know the walk is worth showing) *)
          let first ~lookup ~dest src =
            List.hd (Dataplane.walk ~all:false ~lookup ~dest src)
          in
          refutation :=
            Some
              {
                rf_router = rep;
                rf_prefix = ec.Ecs.ec_prefix;
                rf_concrete =
                  first ~lookup:concrete_lookup
                    ~dest:(Some cf.Dataplane.cf_origin) rep;
                rf_abstract =
                  first ~lookup:abs_lookup
                    ~dest:(Some t.Abstraction.abs_dest)
                    (Abstraction.f t rep);
              });
        incr u_hat
      done;
      match !refutation with
      | Some rf -> `Mismatch rf
      | None -> `Ok !traces)

let check ?protocol ?budget (net : Device.network)
    (results : Bonsai_api.ec_result list) =
  let protocol =
    match protocol with
    | Some p -> p
    | None -> Dataplane.detect_protocol net
  in
  let classes = ref 0 and traces = ref 0 in
  let unknown = ref [] in
  let stop = ref None in
  (try
     List.iter
       (fun (r : Bonsai_api.ec_result) ->
         match check_class ~protocol ?budget net r with
         | `Ok n ->
           incr classes;
           traces := !traces + n
         | `Unknown ->
           incr classes;
           unknown := r.Bonsai_api.ec.Ecs.ec_prefix :: !unknown
         | `Mismatch rf -> raise (Found rf))
       results
   with
  | Found rf -> stop := Some (`Refuted rf)
  | Budget.Exhausted info -> stop := Some (`Budget info));
  match !stop with
  | Some (`Refuted rf) -> Refuted rf
  | Some (`Budget info) ->
    (* the class that ran out and every class not yet reached are
       unknown — reported, never silently omitted *)
    let seen = !classes + List.length !unknown in
    let rest =
      List.filteri (fun i _ -> i >= seen) results
      |> List.map (fun (r : Bonsai_api.ec_result) ->
             r.Bonsai_api.ec.Ecs.ec_prefix)
    in
    Incomplete
      {
        classes = !classes;
        traces = !traces;
        unknown = List.rev_append !unknown rest;
        info;
      }
  | None ->
    if !unknown = [] then Equivalent { classes = !classes; traces = !traces }
    else
      Incomplete
        {
          classes = !classes;
          traces = !traces;
          unknown = List.rev !unknown;
          info = Budget.info Budget.infinite ~phase:"dataplane-bisim" ();
        }

let pp_path names ppf path =
  Format.pp_print_string ppf (String.concat " -> " (List.map names path))

let pp_outcome names ppf = function
  | Dataplane.Delivered p ->
    Format.fprintf ppf "delivered via %a" (pp_path names) p
  | Dataplane.Dropped p -> Format.fprintf ppf "dropped at %a" (pp_path names) p
  | Dataplane.Looped p -> Format.fprintf ppf "loops %a" (pp_path names) p

let refutation_string (net : Device.network) (t : Abstraction.t) rf =
  let names u = Graph.name net.Device.graph u in
  let abs_names u_hat =
    Printf.sprintf "~%s(%d)"
      (names (Abstraction.repr_of_abs t u_hat))
      u_hat
  in
  Format.asprintf
    "data planes diverge at router %s for %a: concrete %a, abstract %a"
    (names rf.rf_router) Prefix.pp rf.rf_prefix
    (pp_outcome names) rf.rf_concrete
    (pp_outcome abs_names) rf.rf_abstract
