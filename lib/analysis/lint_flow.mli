(** Whole-network checks over the route-provenance dataflow ({!Flow}).

    Unlike the per-device linters, these only fire when the misbehaving
    route can actually {e get there}: every verdict is computed against
    the provenance fixpoint, which over-approximates the simulator, so
    "no reachable origin can do X" conclusions are sound. Facts degraded
    to [Unknown] (budget exhaustion) suppress the checks that would read
    them and add a single [flow-degraded] warning instead — the analysis
    never reports from partial state.

    The checks: [cross-protocol-leak] (a route can leave OSPF into BGP
    and be re-injected into OSPF elsewhere), [unintended-transit] (a
    Gao–Rexford violation), [community-provenance] (a community matched
    where no reachable route can carry it) and
    [compression-blocker-origin] (the upstream policy divergence that
    splits two near-equal roles). *)

val run :
  ?locs:Config_text.loc_table ->
  ?budget:Budget.t ->
  Device.network ->
  Diag.t list
(** All flow checks over every destination equivalence class. *)

type fact_row = {
  fr_router : string;
  fr_role : int option;  (** compressed role: the router's abstract node *)
  fr_bgp : string option;  (** the BGP-plane fact; [None]: unreachable *)
  fr_ospf : string option;
}

type report = {
  findings : Diag.t list;  (** in {!Diag.compare} order *)
  degraded : bool;  (** a [flow-degraded] finding: the budget ran out *)
  facts : (Ecs.ec * fact_row list) option;
      (** the provenance fixpoint of one class, one row per router *)
}

val report :
  ?locs:Config_text.loc_table ->
  budget:Budget.t ->
  facts:Ecs.ec option ->
  Device.network ->
  report
(** The analysis behind both [bonsai flow] and the serve [flow] op:
    {!run}, sorted, plus the fixpoint of the [facts] class if given. *)

val report_json_fields : report -> (string * Json.t) list
(** The [bonsai flow --format json] document's fields; the serve [flow]
    op answers with them after its ["network"] field. *)
