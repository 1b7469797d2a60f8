type t = {
  sc_universe : Policy_bdd.universe;
  sc_table : (Prefix.t * Route_map.t option, Bdd.t) Hashtbl.t;
  mutable sc_hits : int;
  mutable sc_misses : int;
  mutable sc_compatible : Device.network;
      (* the last network found compatible, by physical identity *)
}

let create net =
  {
    sc_universe = Policy_bdd.universe_of_network net;
    sc_table = Hashtbl.create 256;
    sc_hits = 0;
    sc_misses = 0;
    sc_compatible = net;
  }

let universe t = t.sc_universe

(* The parameters determine the whole variable layout (bit widths
   included), so comparing them needs no fresh BDD manager. *)
let compatible t net =
  t.sc_compatible == net
  ||
  let p = Policy_bdd.params_of_universe t.sc_universe
  and q = Policy_bdd.universe_params net in
  let same a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b in
  let ok =
    same p.Policy_bdd.up_comms q.Policy_bdd.up_comms
    && same p.Policy_bdd.up_lps q.Policy_bdd.up_lps
    && same p.Policy_bdd.up_meds q.Policy_bdd.up_meds
  in
  if ok then t.sc_compatible <- net;
  ok

let rm_bdd t ~dest rm =
  let key = (dest, rm) in
  match Hashtbl.find_opt t.sc_table key with
  | Some b ->
    t.sc_hits <- t.sc_hits + 1;
    b
  | None ->
    t.sc_misses <- t.sc_misses + 1;
    let b =
      match rm with
      | None -> Policy_bdd.identity t.sc_universe
      | Some rm -> Policy_bdd.encode_route_map t.sc_universe rm ~dest
    in
    Hashtbl.replace t.sc_table key b;
    b

let stats t = (t.sc_hits, t.sc_misses)
let bdd_stats t = Bdd.stats t.sc_universe.Policy_bdd.man
