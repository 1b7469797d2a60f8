(** Data-plane bisimulation between a concrete network and its
    compressed abstraction.

    The control-plane bisimulation (paper §5) guarantees both networks
    reach the same stable solution per destination class; since FIBs are
    compiled from stable solutions (and ACLs are preserved edge-wise by
    transfer-equivalence), the {e forwarding} behavior must agree too, up
    to the topology abstraction [f]. [check] spot-checks that
    consequence end to end: per class it compiles the concrete class FIB
    ({!Dataplane.compile_ec}) and the abstract class FIB (abstract SRP +
    ACLs of representative edges), then traces the class's address from
    every role representative through both, comparing
    delivery/drop/loop behavior. The first divergence is a typed
    (router, prefix, path) refutation — the same shape `certify` uses
    for control-plane witnesses. *)

type refutation = {
  rf_router : int;  (** the role representative whose traces diverge *)
  rf_prefix : Prefix.t;  (** the destination class *)
  rf_concrete : Dataplane.hop_result;  (** witness trace, concrete FIB *)
  rf_abstract : Dataplane.hop_result;
      (** witness trace through the abstract FIB (abstract node ids) *)
}

type verdict =
  | Equivalent of { classes : int; traces : int }
      (** every class agrees; [traces] paths compared in total *)
  | Refuted of refutation  (** first diverging witness *)
  | Incomplete of {
      classes : int;  (** classes fully checked before stopping *)
      traces : int;
      unknown : Prefix.t list;
          (** classes with no verdict (budget ran out, or the control
              plane diverged) — reported, never silently omitted *)
      info : Budget.info;
    }

val check :
  ?protocol:[ `Bgp | `Multi ] ->
  ?budget:Budget.t ->
  Device.network ->
  Bonsai_api.ec_result list ->
  verdict
(** Check every compression result against the concrete network it
    abstracts. Identity abstractions are trivially equivalent (the
    abstract network {e is} the concrete network) and counted without
    re-solving. Both sides are solved under [protocol] when given, else
    under the network's model ({!Compile.model}). *)

val refutation_string : Device.network -> Abstraction.t -> refutation -> string
(** Render a witness with router names (abstract nodes as
    [~repr(id)]), e.g. for [Bonsai_error.Soundness_break]. *)
