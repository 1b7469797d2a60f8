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
  rf_concrete : Forwarding.path;
  rf_abstract : Forwarding.path;
}

type verdict =
  | Equivalent of { classes : int; traces : int }
  | Refuted of refutation
  | Incomplete of {
      classes : int;
      traces : int;
      unknown : Prefix.t list;
      info : Budget.info;
    }

(* One class: trace from every role representative through both FIBs,
   comparing the outcome summaries of Forwarding.outcomes (does any path
   deliver / drop / loop?) rather than raw paths — robust to the
   legitimate differences bisimilar FIBs may show, such as ECMP
   enumeration order, and linear where enumerating ECMP paths is
   exponential in path diversity. [`Ok traces] | [`Mismatch refutation]
   | [`Unknown] (concrete control plane diverged — nothing to compare
   against). *)
let check_class ?budget model (net : Device.network)
    (r : Bonsai_api.ec_result) =
  let t = r.Bonsai_api.abstraction in
  let ec = r.Bonsai_api.ec in
  if Abstraction.is_identity t then
    (* the identity abstraction IS the concrete network; its data plane
       is the concrete data plane by construction *)
    `Ok 0
  else
    match Dataplane.compile_ec ?budget model net ec with
    | `Anycast -> `Ok 0
    | `Unsolved -> `Unknown
    | `Compiled cf -> (
      let n = Graph.n_nodes net.Device.graph in
      let n_abs = Abstraction.n_abstract t in
      let concrete_lookup = Dataplane.class_lookup ~n cf in
      let abs_lookup =
        match Dataplane.compile_abstract ?budget model t with
        | `Compiled acf -> Dataplane.class_lookup ~n:n_abs acf
        | `Unsolved ->
          (* the abstract control plane has no stable solution where the
             concrete one does: every abstract trace drops immediately,
             so the per-representative comparison below refutes with the
             concrete delivery as witness *)
          fun _ -> []
      in
      let concrete_dest = cf.Dataplane.cf_origin
      and abs_dest = t.Abstraction.abs_dest in
      let concrete_outcome =
        Forwarding.outcomes ~n ~lookup:concrete_lookup ~dest:concrete_dest
      in
      let abs_outcome =
        Forwarding.outcomes ~n:n_abs ~lookup:abs_lookup ~dest:abs_dest
      in
      (* one witness path per side (first ECMP branch — enumeration is
         only safe once the summaries show the walk is worth showing) *)
      let first ~lookup ~dest src =
        List.hd (Forwarding.walk ~all:false ~lookup ~dest:(Some dest) src)
      in
      let rec go u_hat traces =
        if u_hat = n_abs then `Ok traces
        else
          let rep = Abstraction.repr_of_abs t u_hat in
          let rep_hat = Abstraction.f t rep in
          if concrete_outcome rep = abs_outcome rep_hat then
            go (u_hat + 1) (traces + 2)
          else
            `Mismatch
              {
                rf_router = rep;
                rf_prefix = ec.Ecs.ec_prefix;
                rf_concrete =
                  first ~lookup:concrete_lookup ~dest:concrete_dest rep;
                rf_abstract = first ~lookup:abs_lookup ~dest:abs_dest rep_hat;
              }
      in
      go 0 0)

let check ?protocol ?budget (net : Device.network)
    (results : Bonsai_api.ec_result list) =
  let (Compile.Model model) =
    match protocol with
    | None -> Compile.model net
    | Some `Bgp -> Compile.Model Compile.Bgp
    | Some `Multi -> Compile.Model Compile.Multi
  in
  let prefix (r : Bonsai_api.ec_result) = r.Bonsai_api.ec.Ecs.ec_prefix in
  let rec go classes traces unknown = function
    | [] when unknown = [] -> Equivalent { classes; traces }
    | [] ->
      let info = Budget.info Budget.infinite ~phase:"dataplane-bisim" () in
      Incomplete { classes; traces; unknown = List.rev unknown; info }
    | r :: rest as todo -> (
      match check_class ?budget model net r with
      | `Ok n -> go (classes + 1) (traces + n) unknown rest
      | `Unknown -> go (classes + 1) traces (prefix r :: unknown) rest
      | `Mismatch rf -> Refuted rf
      | exception Budget.Exhausted info ->
        (* the class that ran out and every class not yet reached are
           unknown — reported, never silently omitted *)
        let unknown = List.rev_append unknown (List.map prefix todo) in
        Incomplete { classes; traces; unknown; info })
  in
  go 0 0 [] results

let pp_path names ppf path =
  Format.pp_print_string ppf (String.concat " -> " (List.map names path))

let pp_outcome names ppf = function
  | Forwarding.Delivered p ->
    Format.fprintf ppf "delivered via %a" (pp_path names) p
  | Forwarding.Dropped p -> Format.fprintf ppf "dropped at %a" (pp_path names) p
  | Forwarding.Looped p -> Format.fprintf ppf "loops %a" (pp_path names) p

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
