type entry = { mutable e_bdd : Bdd.t; mutable e_stamp : int }

type t = {
  sc_universe : Policy_bdd.universe;
  sc_table : (Prefix.t * Route_map.t option, entry) Hashtbl.t;
  sc_max_entries : int;
  mutable sc_clock : int;
  mutable sc_hits : int;
  mutable sc_misses : int;
  mutable sc_evictions : int;
  mutable sc_compatible : Device.network;
      (* the last network found compatible, by physical identity *)
}

let create ?(max_entries = max_int) net =
  if max_entries < 1 then invalid_arg "Sig_cache.create: max_entries < 1";
  {
    sc_universe = Policy_bdd.universe_of_network net;
    sc_table = Hashtbl.create 256;
    sc_max_entries = max_entries;
    sc_clock = 0;
    sc_hits = 0;
    sc_misses = 0;
    sc_evictions = 0;
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

let touch t e =
  t.sc_clock <- t.sc_clock + 1;
  e.e_stamp <- t.sc_clock

(* Evict the least-recently-used entry. A linear scan is fine: eviction
   only happens with the table at its cap, inserts at the cap are rare in
   steady state, and the cap bounds the scan. Eviction drops the cache's
   reference to the BDD, not the hash-consed nodes themselves — those are
   reclaimed only when the whole manager is rebuilt (cache-incompatible
   delta, or a resident engine recycling a network entry) — but it bounds
   the number of live roots re-encodable work can accumulate. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k (e : entry) ->
      match !victim with
      | Some (_, stamp) when stamp <= e.e_stamp -> ()
      | _ -> victim := Some (k, e.e_stamp))
    t.sc_table;
  match !victim with
  | None -> ()
  | Some (k, _) ->
    Hashtbl.remove t.sc_table k;
    t.sc_evictions <- t.sc_evictions + 1

let rm_bdd t ~dest rm =
  let key = (dest, rm) in
  match Hashtbl.find_opt t.sc_table key with
  | Some e ->
    t.sc_hits <- t.sc_hits + 1;
    touch t e;
    e.e_bdd
  | None ->
    t.sc_misses <- t.sc_misses + 1;
    let b =
      match rm with
      | None -> Policy_bdd.identity t.sc_universe
      | Some rm -> Policy_bdd.encode_route_map t.sc_universe rm ~dest
    in
    if Hashtbl.length t.sc_table >= t.sc_max_entries then evict_lru t;
    let e = { e_bdd = b; e_stamp = 0 } in
    touch t e;
    Hashtbl.replace t.sc_table key e;
    b

let stats t = (t.sc_hits, t.sc_misses)
let evictions t = t.sc_evictions
let length t = Hashtbl.length t.sc_table
let max_entries t = t.sc_max_entries
let bdd_stats t = Bdd.stats t.sc_universe.Policy_bdd.man
