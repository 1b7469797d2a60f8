(** Whole-network route-provenance analysis (the `bonsai flow` substrate).

    For one destination equivalence class, every router is split into an
    OSPF-plane and a BGP-plane node; directed edges model every way a
    route for the class can move between planes: OSPF adjacencies, BGP
    sessions whose policies can deliver the class (receiver ACL permits it
    and both route-maps can permit it, first-match semantics over
    {!Cond_bdd}), and intra-router redistribution. The {!Dataflow} engine
    then pushes {e provenance facts} to a fixpoint: at each plane of each
    router, the set of possible (origin, taint) pairs plus the communities
    a route may carry when it gets there.

    Facts {e over-approximate} the simulator: whenever the stable solution
    of the compiled SRP delivers a route to a router, this analysis admits
    a prov for it with the matching origin, and the fact's community set
    contains every community the delivered route carries. The converse
    does not hold (policies are abstracted to "can permit", AS-path loop
    prevention and community deletion are ignored), which is exactly what
    makes "no reachable origin can do X" verdicts trustworthy. Budget
    exhaustion degrades every fact to {!Unknown} — checks skip [Unknown]
    rather than report from partial state. *)

type plane = Ospf | Bgp

(** {1 Taint bits} — events on some path that produced the prov. *)

val t_ospf : int  (** has been in the OSPF plane *)

val t_ebgp : int  (** traversed an eBGP session *)

val t_ibgp : int  (** traversed an iBGP session *)

val t_redist : int  (** crossed a redistribution boundary *)

val t_static : int  (** originated from a static route *)

val t_from_provider : int  (** learned across a session from a provider *)

val t_from_peer : int  (** learned across a session from a peer *)

val has : int -> int -> bool
(** [has taint bit]. *)

val taint_to_string : int -> string
(** E.g. ["ospf+ebgp+redist"]; ["-"] for an empty taint. *)

type prov = {
  org : int;  (** originating router of the route *)
  taint : int;
  via_redist : int;
      (** the router whose [Ospf_into_bgp]/[Static_into_bgp] redistribution
          last injected this route into BGP, [-1] if none — the exporter a
          cross-protocol leak re-enters OSPF {e away} from *)
}

type fact = Unknown | Facts of { provs : prov list; comms : int list }
(** [provs] sorted and deduplicated; [comms] sorted ascending. [Unknown]
    is the lattice top ("any route, any communities"). *)

val fact_equal : fact -> fact -> bool

type t

val analyze :
  ?budget:Budget.t -> ?cond:Cond_bdd.t -> Device.network -> Ecs.ec -> t
(** One budget tick per edge relaxation (phase ["flow"]). Never raises
    {!Budget.Exhausted} — see {!degraded}. [cond] lets callers analyzing
    many classes share one condition universe (it is class-independent);
    built from the network when absent. *)

val network : t -> Device.network
val ec : t -> Ecs.ec
val cond : t -> Cond_bdd.t
(** The condition universe the analysis used (shared with callers so
    route-map reachability questions agree with edge construction). *)

val degraded : t -> Budget.info option

val fact : t -> int -> plane -> fact option
(** [None]: no route for the class can reach this plane of the router. *)

val bgp_edges : t -> (int * int) list
(** The (sender, receiver) BGP session edges whose policies can deliver
    the class, sorted. Sessions filtered by ACL or route-maps are absent. *)

val export_added : t -> src:int -> dst:int -> int list
(** Communities the {e sender-side} export route-map of the session can
    add (reachable permit clauses only) — what [dst]'s import route-map
    can observe beyond the communities already on the route at [src]. *)

val pp_fact : names:(int -> string) -> Format.formatter -> fact -> unit

(** {1 Route-map reachability helpers} (first-match semantics, shared with
    the flow checks). *)

val rm_can_permit : Cond_bdd.t -> Route_map.t option -> dest:Prefix.t -> bool
(** Can the route-map permit {e some} advertisement of [dest]? [None]
    (no route-map) permits everything. *)

val reachable_matched :
  Cond_bdd.t -> Route_map.t -> dest:Prefix.t -> int list
(** Communities tested by a reachable clause (permit or deny) of the
    route-map specialized to [dest]; sorted, deduplicated. *)

val reachable_added : Cond_bdd.t -> Route_map.t -> dest:Prefix.t -> int list
(** Communities added by a reachable {e permit} clause of the route-map
    specialized to [dest]; sorted, deduplicated. *)
