(* Modular compression with per-module fault isolation. See modular.mli
   for the contract and DESIGN.md §16 for the soundness argument. *)

type mode = Annot | Auto

let mode_of_string = function
  | "annot" -> Some Annot
  | "auto" -> Some Auto
  | _ -> None

let mode_to_string = function Annot -> "annot" | Auto -> "auto"

(* ------------------------------------------------------------------ *)
(* Partitioning *)

let partition ?count ~mode (net : Device.network) =
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  match mode with
  | Annot ->
    let tbl = Hashtbl.create 16 in
    let missing = ref 0 in
    let first = ref None in
    Array.iteri
      (fun v (r : Device.router) ->
        match r.Device.module_name with
        | Some m ->
          let l = try Hashtbl.find tbl m with Not_found -> [] in
          Hashtbl.replace tbl m (v :: l)
        | None ->
          incr missing;
          if !first = None then first := Some r.Device.name)
      net.Device.routers;
    if !missing > 0 then
      Error
        (Printf.sprintf
           "%d router(s) lack a module annotation (first: %s); annotate \
            every router or use --modules auto"
           !missing
           (match !first with Some s -> s | None -> "?"))
    else
      Hashtbl.fold (fun m l acc -> (m, List.rev l) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> Result.ok
  | Auto ->
    if n = 0 then Error "empty network"
    else begin
      let count =
        match count with
        | Some c -> max 1 (min c n)
        | None -> max 2 (min 64 (n / 100)) |> min n
      in
      let target = max 1 ((n + count - 1) / count) in
      let assigned = Array.make n false in
      let parts = ref [] in
      let idx = ref 0 in
      for root = 0 to n - 1 do
        if not assigned.(root) then begin
          (* Grow a BFS region of up to [target] yet-unassigned nodes,
             so regions are connected (modulo leftovers) and of roughly
             equal size — boundaries stay small on geographic WANs. *)
          let q = Queue.create () in
          let members = ref [] in
          let size = ref 0 in
          Queue.add root q;
          assigned.(root) <- true;
          incr size;
          while not (Queue.is_empty q) do
            let u = Queue.pop q in
            members := u :: !members;
            Array.iter
              (fun w ->
                if (not assigned.(w)) && !size < target then begin
                  assigned.(w) <- true;
                  incr size;
                  Queue.add w q
                end)
              (Graph.succ g u)
          done;
          parts :=
            (Printf.sprintf "m%03d" !idx, List.sort Int.compare !members)
            :: !parts;
          incr idx
        end
      done;
      Ok (List.sort (fun (a, _) (b, _) -> String.compare a b) !parts)
    end

(* ------------------------------------------------------------------ *)
(* Health and reports *)

type health = Healthy | Retried | Degraded | Refuted

let health_name = function
  | Healthy -> "ok"
  | Retried -> "retried"
  | Degraded -> "degraded"
  | Refuted -> "refuted"

type module_report = {
  mr_name : string;
  mr_routers : int;
  mr_ecs : int;
  mr_concrete : int;
  mr_abstract : int;
  mr_health : health;
  mr_detail : string option;
  mr_time_s : float;
}

type report = {
  rp_modules : module_report list;
  rp_routers : int;
  rp_skipped_anycast : int;
  rp_time_s : float;
}

let any_fault rp =
  List.exists
    (fun mr -> match mr.mr_health with
      | Degraded | Refuted -> true
      | Healthy | Retried -> false)
    rp.rp_modules

(* ------------------------------------------------------------------ *)
(* Subnet construction: a module's members plus one pinned stub per
   boundary neighbor, carrying the interface routes (external prefix
   originations placed so the subnet's destination classes mirror the
   global ones). *)

type module_state = {
  ms_name : string;
  ms_members : int array;  (* global ids, ascending *)
  ms_env : int array;  (* global ids of boundary stubs, ascending *)
  mutable ms_subnet : Device.network;
      (* members first (same order), then stubs *)
  ms_pinned : int list;  (* subnet ids of the stubs *)
  mutable ms_state : Incr.state option;
  mutable ms_health : health;
  mutable ms_detail : string option;
  mutable ms_time_s : float;
}

let remap_router keep (r : Device.router) =
  {
    r with
    Device.bgp_neighbors =
      List.filter_map
        (fun (u, c) -> Option.map (fun u' -> (u', c)) (keep u))
        r.Device.bgp_neighbors;
    ospf_links =
      List.filter_map
        (fun (u, l) -> Option.map (fun u' -> (u', l)) (keep u))
        r.Device.ospf_links;
    acl_out =
      List.filter_map
        (fun (u, a) -> Option.map (fun u' -> (u', a)) (keep u))
        r.Device.acl_out;
    static_routes =
      List.filter_map
        (fun (p, u) -> Option.map (fun u' -> (p, u')) (keep u))
        r.Device.static_routes;
  }

let subnet_of (net : Device.network) ~name ~members ~(ecs : Ecs.ec list) =
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  let memb = Array.of_list members in
  let in_module = Array.make n false in
  Array.iter (fun v -> in_module.(v) <- true) memb;
  (* Boundary stubs: every external neighbor of a member. *)
  let env_set = Hashtbl.create 16 in
  Array.iter
    (fun u ->
      Array.iter
        (fun w -> if not in_module.(w) then Hashtbl.replace env_set w ())
        (Graph.succ g u))
    memb;
  let env =
    Hashtbl.fold (fun w () acc -> w :: acc) env_set []
    |> List.sort Int.compare |> Array.of_list
  in
  let b = Graph.Builder.create () in
  let sub_of = Hashtbl.create 64 in
  Array.iter
    (fun v -> Hashtbl.replace sub_of v (Graph.Builder.add_node b (Graph.name g v)))
    memb;
  Array.iter
    (fun v -> Hashtbl.replace sub_of v (Graph.Builder.add_node b (Graph.name g v)))
    env;
  (* Links: member-member (each once) and member-stub; stub-stub links
     are dropped — the stub summarizes only its sessions toward the
     module. *)
  Array.iter
    (fun u ->
      let u' = Hashtbl.find sub_of u in
      Array.iter
        (fun w ->
          match Hashtbl.find_opt sub_of w with
          | None -> ()
          | Some w' ->
            if in_module.(w) then begin
              if u < w then Graph.Builder.add_link b u' w'
            end
            else Graph.Builder.add_link b u' w')
        (Graph.succ g u))
    memb;
  let sg = Graph.Builder.build b in
  let n_members = Array.length memb in
  (* Destination-class parity: each global class with no origin among the
     members must announce its prefix from exactly one stub, placed in
     the stub's connected component of G∖members that holds an origin —
     so the route enters the module on the sessions it really would.
     One placement keeps subnet classes single-origin even for anycast
     prefixes. *)
  let comp = Array.make n (-1) in
  let next_comp = ref 0 in
  for v = 0 to n - 1 do
    if (not in_module.(v)) && comp.(v) < 0 then begin
      let c = !next_comp in
      incr next_comp;
      comp.(v) <- c;
      let q = Queue.create () in
      Queue.add v q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Array.iter
          (fun w ->
            if (not in_module.(w)) && comp.(w) < 0 then begin
              comp.(w) <- c;
              Queue.add w q
            end)
          (Graph.succ g u)
      done
    end
  done;
  let extra_origs = Hashtbl.create 16 in
  (* global stub id -> placed prefixes, reverse order *)
  List.iter
    (fun (ec : Ecs.ec) ->
      let internal = List.exists (fun o -> in_module.(o)) ec.Ecs.ec_origins in
      if (not internal) && Array.length env > 0 then begin
        let comps = List.map (fun o -> comp.(o)) ec.Ecs.ec_origins in
        let site =
          match
            Array.to_list env
            |> List.find_opt (fun e -> List.mem comp.(e) comps)
          with
          | Some e -> e
          | None -> env.(0)
        in
        let l = try Hashtbl.find extra_origs site with Not_found -> [] in
        Hashtbl.replace extra_origs site (ec.Ecs.ec_prefix :: l)
      end)
    ecs;
  let routers =
    Array.init (Graph.n_nodes sg) (fun v' ->
        if v' < n_members then
          let r = net.Device.routers.(memb.(v')) in
          remap_router (fun u -> Hashtbl.find_opt sub_of u) r
        else begin
          let gid = env.(v' - n_members) in
          let r = net.Device.routers.(gid) in
          (* Keep only the stub's config toward the members; its
             originations become the placed interface routes. *)
          let keep u =
            match Hashtbl.find_opt sub_of u with
            | Some i when i < n_members -> Some i
            | _ -> None
          in
          let r = remap_router keep r in
          {
            r with
            Device.originated =
              (try List.rev (Hashtbl.find extra_origs gid)
               with Not_found -> []);
            module_name = None;
          }
        end)
  in
  let subnet = { Device.graph = sg; routers } in
  let pinned = List.init (Array.length env) (fun i -> n_members + i) in
  {
    ms_name = name;
    ms_members = memb;
    ms_env = env;
    ms_subnet = subnet;
    ms_pinned = pinned;
    ms_state = None;
    ms_health = Degraded;
    ms_detail = None;
    ms_time_s = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* The supervisor: compress one module under its own budget slice,
   isolating faults to that module. *)

let budget_detail (i : Budget.info) =
  (* No elapsed wall-clock: the detail lands in byte-pinned goldens. *)
  Printf.sprintf "budget exhausted (%s, %d ticks)" i.Budget.phase
    i.Budget.ticks

let attempt ~params ~budget ms =
  (* Fresh BDD manager per attempt over the global value layout: a
     faulting module cannot poison another module's node table, yet
     policy equality means the same thing everywhere. *)
  let universe = Policy_bdd.universe_of_params params in
  match Incr.init ~pinned:ms.ms_pinned ~universe ~budget ms.ms_subnet with
  | Ok st -> (
    match (Incr.summary st).Bonsai_api.degradation with
    | None -> Ok st
    | Some d -> Error (budget_detail d.Bonsai_api.deg_info))
  | Error (Bonsai_error.Budget_exceeded i) -> Error (budget_detail i)
  | Error e -> Error (Bonsai_error.to_string e)

let certify_state ~budget ms st =
  (* Independent audit in a fresh universe derived from the subnet
     itself — nothing shared with the engine under audit. *)
  let summary = Incr.summary st in
  let universe = Policy_bdd.universe_of_network ms.ms_subnet in
  let rec go = function
    | [] -> None
    | (r : Bonsai_api.ec_result) :: rest -> (
      match
        Certify.check_result ~budget ~universe ~audit:Certify.Sample
          ms.ms_subnet r
      with
      | Certify.Refuted fs -> Some (Certify.failures_string fs)
      | Certify.Certified _ | Certify.Audit_incomplete _ -> go rest)
  in
  go summary.Bonsai_api.results

let supervise ~params ~budget ~certify ~injected ~retry_pause ~remaining ms =
  let t0 = Timing.now () in
  let remaining = max 1 remaining in
  let slice frac =
    if injected then Budget.create ~max_ticks:1 ()
    else Budget.split budget ~frac
  in
  let frac1 = 1.0 /. float_of_int remaining in
  let outcome =
    match attempt ~params ~budget:(slice frac1) ms with
    | Ok st -> Some (st, Healthy)
    | Error detail1 -> (
      (* One escalated retry: twice the fair share of what is left. *)
      retry_pause ms.ms_name;
      let frac2 = min 1.0 (2.0 *. frac1) in
      match attempt ~params ~budget:(slice frac2) ms with
      | Ok st -> Some (st, Retried)
      | Error detail2 ->
        ms.ms_state <- None;
        ms.ms_health <- Degraded;
        ms.ms_detail <-
          Some (if detail2 = "" then detail1 else detail2);
        None)
  in
  (match outcome with
  | None -> ()
  | Some (st, h) -> (
    ms.ms_state <- Some st;
    ms.ms_health <- h;
    ms.ms_detail <- None;
    if certify then
      match certify_state ~budget ms st with
      | None -> ()
      | Some detail ->
        (* The checker refuted this module's witness: isolate it. *)
        ms.ms_state <- None;
        ms.ms_health <- Refuted;
        ms.ms_detail <- Some detail));
  ms.ms_time_s <- Timing.now () -. t0

let single_ec (ec : Ecs.ec) =
  match ec.Ecs.ec_origins with [ _ ] -> true | _ -> false

let module_report_of ms =
  let n_members = Array.length ms.ms_members in
  let ecs_count, concrete, abstract =
    match ms.ms_state with
    | Some st ->
      let s = Incr.summary st in
      let groups_of (r : Bonsai_api.ec_result) =
        let g = r.Bonsai_api.abstraction.Abstraction.group_of in
        let seen = Hashtbl.create 16 in
        let c = ref 0 in
        for i = 0 to n_members - 1 do
          if not (Hashtbl.mem seen g.(i)) then begin
            Hashtbl.replace seen g.(i) ();
            incr c
          end
        done;
        !c
      in
      let per = List.map groups_of s.Bonsai_api.results in
      let k = List.length per in
      (k, n_members * k, List.fold_left ( + ) 0 per)
    | None ->
      (* Degraded: the identity abstraction per destination class. *)
      let k = List.length (List.filter single_ec (Ecs.compute ms.ms_subnet)) in
      (k, n_members * k, n_members * k)
  in
  {
    mr_name = ms.ms_name;
    mr_routers = n_members;
    mr_ecs = ecs_count;
    mr_concrete = concrete;
    mr_abstract = abstract;
    mr_health = ms.ms_health;
    mr_detail = ms.ms_detail;
    mr_time_s = ms.ms_time_s;
  }

(* ------------------------------------------------------------------ *)
(* Whole-network state *)

type state = {
  mutable st_net : Device.network;
  st_mode : mode;
  st_count : int option;
  st_certify : bool;
  st_retry_pause : string -> unit;
  mutable st_skipped_anycast : int;
  mutable st_modules : module_state list;  (* sorted by name *)
  mutable st_params : Policy_bdd.universe_params;
  mutable st_time_s : float;
}

let build_state ~mode ~count ~certify ~retry_pause ~budget ~inject_fault net =
  let t0 = Timing.now () in
  (match Device.validate net with
  | Ok () -> ()
  | Error m -> Bonsai_error.error (Bonsai_error.Compile_error m));
  let parts =
    match partition ?count ~mode net with
    | Ok p -> p
    | Error m -> Bonsai_error.error (Bonsai_error.Compile_error m)
  in
  let ecs = Ecs.compute net in
  let anycast = List.length (List.filter (fun e -> not (single_ec e)) ecs) in
  let params = Policy_bdd.universe_params net in
  let modules =
    List.map (fun (name, members) -> subnet_of net ~name ~members ~ecs) parts
  in
  let total = List.length modules in
  List.iteri
    (fun i ms ->
      let injected = List.mem ms.ms_name inject_fault in
      supervise ~params ~budget ~certify ~injected ~retry_pause
        ~remaining:(total - i) ms)
    modules;
  {
    st_net = net;
    st_mode = mode;
    st_count = count;
    st_certify = certify;
    st_retry_pause = retry_pause;
    st_skipped_anycast = anycast;
    st_modules = modules;
    st_params = params;
    st_time_s = Timing.now () -. t0;
  }

let run ?(mode = Auto) ?count ?(budget = Budget.infinite) ?(certify = false)
    ?(inject_fault = []) ?(retry_pause = fun _ -> ()) net =
  Bonsai_error.protect @@ fun () ->
  build_state ~mode ~count ~certify ~retry_pause ~budget ~inject_fault net

let report st =
  let mods = List.map module_report_of st.st_modules in
  {
    rp_modules = mods;
    rp_routers = List.fold_left (fun a mr -> a + mr.mr_routers) 0 mods;
    rp_skipped_anycast = st.st_skipped_anycast;
    rp_time_s = st.st_time_s;
  }

let network st = st.st_net
let module_names st = List.map (fun ms -> ms.ms_name) st.st_modules

let module_summary st name =
  Option.bind
    (List.find_opt (fun ms -> ms.ms_name = name) st.st_modules)
    (fun ms -> Option.map Incr.summary ms.ms_state)

(* ------------------------------------------------------------------ *)
(* Streaming: already-summarized module subnets, one at a time; only
   the report survives, so a 10k-router network never materializes. *)

let run_stream ?(budget = Budget.infinite) ?(certify = false)
    ?(inject_fault = []) ?(retry_pause = fun _ -> ()) ~count seq =
  Bonsai_error.protect @@ fun () ->
  let t0 = Timing.now () in
  let entries = ref [] in
  let processed = ref 0 in
  Seq.iter
    (fun (name, (net : Device.network)) ->
      (match Device.validate net with
      | Ok () -> ()
      | Error m ->
        Bonsai_error.error
          (Bonsai_error.Compile_error (Printf.sprintf "%s: %s" name m)))
      ;
      let n = Graph.n_nodes net.Device.graph in
      let ms =
        {
          ms_name = name;
          ms_members = Array.init n (fun i -> i);
          ms_env = [||];
          ms_subnet = net;
          ms_pinned = [];
          ms_state = None;
          ms_health = Degraded;
          ms_detail = None;
          ms_time_s = 0.0;
        }
      in
      let params = Policy_bdd.universe_params net in
      let injected = List.mem name inject_fault in
      supervise ~params ~budget ~certify ~injected ~retry_pause
        ~remaining:(max 1 (count - !processed))
        ms;
      incr processed;
      entries := module_report_of ms :: !entries;
      (* Drop the engine state before pulling the next module. *)
      ms.ms_state <- None)
    seq;
  let mods =
    List.sort (fun a b -> String.compare a.mr_name b.mr_name) !entries
  in
  {
    rp_modules = mods;
    rp_routers = List.fold_left (fun a mr -> a + mr.mr_routers) 0 mods;
    rp_skipped_anycast = 0;
    rp_time_s = Timing.now () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Module-level quarantine and repair (the resident engine's hooks) *)

let find_module st name =
  List.find_opt (fun ms -> ms.ms_name = name) st.st_modules

let quarantine st name =
  match find_module st name with
  | Some ms when Option.is_some ms.ms_state ->
    ms.ms_state <- None;
    ms.ms_health <- Refuted;
    ms.ms_detail <- Some "quarantined";
    true
  | _ -> false

let rebuild_module ?(budget = Budget.infinite) st name =
  Bonsai_error.protect @@ fun () ->
  match find_module st name with
  | None ->
    Bonsai_error.error
      (Bonsai_error.Compile_error ("unknown module " ^ name))
  | Some ms ->
    supervise ~params:st.st_params ~budget ~certify:st.st_certify
      ~injected:false ~retry_pause:st.st_retry_pause ~remaining:1 ms

let self_audit ?(budget = Budget.infinite) st =
  List.filter_map
    (fun ms ->
      match ms.ms_state with
      | None -> None
      | Some engine -> (
        match certify_state ~budget ms engine with
        | None -> None
        | Some detail ->
          ms.ms_state <- None;
          ms.ms_health <- Refuted;
          ms.ms_detail <- Some detail;
          Some (ms.ms_name, detail)))
    st.st_modules

(* ------------------------------------------------------------------ *)
(* Incremental update: deltas confined to the interior of one healthy
   module recompress only that module. *)

let touched_names (d : Delta.t) =
  match d with
  | Delta.Link_up (a, b) | Delta.Link_down (a, b) -> [ a; b ]
  | Delta.Node_add _ | Delta.Node_remove _ -> []
  | Delta.Ospf_cost { node; nbr; _ }
  | Delta.Ospf_link_set { node; nbr; _ }
  | Delta.Route_map_set { node; nbr; _ }
  | Delta.Bgp_neighbor_set { node; nbr; _ }
  | Delta.Acl_set { node; nbr; _ } -> [ node; nbr ]
  | Delta.Ospf_area_set { node; _ }
  | Delta.Originate_set { node; _ }
  | Delta.Redistribute_set { node; _ } -> [ node ]
  | Delta.Static_set { node; routes } -> node :: List.map snd routes

let structural (d : Delta.t) =
  match d with
  | Delta.Node_add _ | Delta.Node_remove _ -> true
  (* Origination changes reshape the global destination classes, which
     every module's interface-route placement depends on. *)
  | Delta.Originate_set _ -> true
  | _ -> false

let rebuild_in_place ?budget st net =
  let budget = match budget with Some b -> b | None -> Budget.infinite in
  let st' =
    build_state ~mode:st.st_mode ~count:st.st_count ~certify:st.st_certify
      ~retry_pause:st.st_retry_pause ~budget ~inject_fault:[] net
  in
  st.st_net <- st'.st_net;
  st.st_skipped_anycast <- st'.st_skipped_anycast;
  st.st_modules <- st'.st_modules;
  st.st_params <- st'.st_params;
  st.st_time_s <- st'.st_time_s

let update ?budget st deltas =
  Bonsai_error.protect @@ fun () ->
  let g = st.st_net.Device.graph in
  (* name -> (module, interior?) for the fast-path test *)
  let owner = Hashtbl.create 64 in
  List.iter
    (fun ms ->
      let in_module = Hashtbl.create 64 in
      Array.iter
        (fun v -> Hashtbl.replace in_module (Graph.name g v) ())
        ms.ms_members;
      Array.iter
        (fun v ->
          let interior =
            Array.for_all
              (fun w -> Hashtbl.mem in_module (Graph.name g w))
              (Graph.succ g v)
          in
          Hashtbl.replace owner (Graph.name g v) (ms, interior))
        ms.ms_members)
    st.st_modules;
  let targeted =
    if List.exists structural deltas then None
    else begin
      let names = List.concat_map touched_names deltas in
      match names with
      | [] -> None
      | first :: _ -> (
        match Hashtbl.find_opt owner first with
        | None -> None
        | Some (ms0, _) ->
          let ok =
            List.for_all
              (fun nm ->
                match Hashtbl.find_opt owner nm with
                | Some (ms, interior) -> ms == ms0 && interior
                | None -> false)
              names
          in
          if ok then Some ms0 else None)
    end
  in
  match targeted with
  | Some ms when Option.is_some ms.ms_state -> (
    let engine = Option.get ms.ms_state in
    match Incr.recompress ?budget engine deltas with
    | Error e -> Bonsai_error.error e
    | Ok rep ->
      (* Names are preserved in the subnet, so the same deltas apply
         globally and locally. *)
      ms.ms_subnet <- Incr.network engine;
      st.st_net <- Delta.apply st.st_net deltas;
      Some rep)
  | _ ->
    rebuild_in_place ?budget st (Delta.apply st.st_net deltas);
    None

(* ------------------------------------------------------------------ *)
(* Composition: per-module partitions -> whole-network abstractions *)

let compose ?(budget = Budget.infinite) st =
  Bonsai_error.protect @@ fun () ->
  let net = st.st_net in
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  let universe, bdd_time_s =
    Timing.time (fun () -> Policy_bdd.universe_of_network net)
  in
  let ecs = Ecs.compute net in
  let singles = List.filter single_ec ecs in
  let anycast = List.length ecs - List.length singles in
  let prefs_trivial = Incr.no_lp_no_redistribute net in
  (* Per-module group labels for a class, looked up by prefix. *)
  let module_groups ms (ec : Ecs.ec) =
    match ms.ms_state with
    | None -> None
    | Some engine ->
      let s = Incr.summary engine in
      List.find_opt
        (fun (r : Bonsai_api.ec_result) ->
          Prefix.compare r.Bonsai_api.ec.Ecs.ec_prefix ec.Ecs.ec_prefix = 0)
        s.Bonsai_api.results
      |> Option.map (fun (r : Bonsai_api.ec_result) ->
             r.Bonsai_api.abstraction.Abstraction.group_of)
  in
  let seeded_result (ec : Ecs.ec) =
    let t0 = Timing.now () in
    let dest = Ecs.single_origin ec in
    (* Seed: union of per-module partitions, class ids disjoint across
       modules; a degraded module contributes singletons (the identity
       partition), which only refines the union — still exact after the
       merge pass (DESIGN.md §16). *)
    let cls = Array.make n 0 in
    let offset = ref 0 in
    List.iter
      (fun ms ->
        let m = Array.length ms.ms_members in
        (match module_groups ms ec with
        | Some group_of ->
          let dense = Hashtbl.create 16 in
          let k = ref 0 in
          Array.iteri
            (fun i v ->
              let gl = group_of.(i) in
              let id =
                match Hashtbl.find_opt dense gl with
                | Some id -> id
                | None ->
                  let id = !k in
                  incr k;
                  Hashtbl.replace dense gl id;
                  id
              in
              cls.(v) <- !offset + id)
            ms.ms_members;
          offset := !offset + !k
        | None ->
          Array.iteri (fun i v -> cls.(v) <- !offset + i) ms.ms_members;
          offset := !offset + m))
      st.st_modules;
    let seed = Union_split_find.of_class_array cls in
    Bdd.set_budget universe.Policy_bdd.man budget;
    Fun.protect ~finally:(fun () ->
        Bdd.set_budget universe.Policy_bdd.man Budget.infinite)
    @@ fun () ->
    let _, signature =
      Compile.edge_signatures ~universe net ~dest:ec.Ecs.ec_prefix
    in
    let prefs _ = [ Bgp.default_lp ] in
    let live_self u v = (signature u v).Compile.sig_static in
    let part, refine_stats =
      Refine.find_partition net ~dest ~live_self ~seed ~budget ~signature
        ~prefs
    in
    Incr.quotient_merge part net ~dest ~signature ~pinned:[] ~budget;
    let abstraction =
      Abstraction.make net ~dest ~dest_prefix:ec.Ecs.ec_prefix ~universe
        ~partition:part
        ~copies:(fun _ -> 1)
    in
    {
      Bonsai_api.ec;
      abstraction;
      refine_stats;
      time_s = Timing.now () -. t0;
      degraded = false;
    }
  in
  let results =
    List.map
      (fun ec ->
        if
          prefs_trivial
          && Incr.ec_seedable ~prefs_trivial:true net ec
        then seeded_result ec
        else
          match Bonsai_api.compress_ec ~universe ~budget net ec with
          | Ok r -> r
          | Error e -> Bonsai_error.error e)
      singles
  in
  {
    Bonsai_api.net;
    bdd_time_s;
    results;
    skipped_anycast = anycast;
    degradation = None;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_report ppf rp =
  let namew =
    List.fold_left
      (fun w mr -> max w (String.length mr.mr_name))
      (String.length "module") rp.rp_modules
  in
  Format.fprintf ppf "%-*s  %7s  %5s  %9s  %9s  %s@." namew "module"
    "routers" "ecs" "concrete" "abstract" "health";
  List.iter
    (fun mr ->
      Format.fprintf ppf "%-*s  %7d  %5d  %9d  %9d  %s%s@." namew mr.mr_name
        mr.mr_routers mr.mr_ecs mr.mr_concrete mr.mr_abstract
        (health_name mr.mr_health)
        (match mr.mr_detail with
        | Some d -> Printf.sprintf " (%s)" d
        | None -> ""))
    rp.rp_modules;
  let faulted =
    List.length
      (List.filter
         (fun mr ->
           match mr.mr_health with
           | Degraded | Refuted -> true
           | Healthy | Retried -> false)
         rp.rp_modules)
  in
  Format.fprintf ppf "total: %d module(s), %d router(s), %d faulted@."
    (List.length rp.rp_modules)
    rp.rp_routers faulted;
  if rp.rp_skipped_anycast > 0 then
    Format.fprintf ppf "skipped %d anycast class(es)@." rp.rp_skipped_anycast

let module_to_json ~timed mr =
  Json.Obj
    ([
       ("module", Json.String mr.mr_name);
       ("routers", Json.Int mr.mr_routers);
       ("ecs", Json.Int mr.mr_ecs);
       ("concrete", Json.Int mr.mr_concrete);
       ("abstract", Json.Int mr.mr_abstract);
       ("health", Json.String (health_name mr.mr_health));
     ]
    @ (if timed then [ ("time_s", Json.Float mr.mr_time_s) ] else [])
    @
    match mr.mr_detail with
    | Some d -> [ ("detail", Json.String d) ]
    | None -> [])

let report_json_fields rp =
  [
    ( "modules",
      Json.List (List.map (module_to_json ~timed:true) rp.rp_modules) );
    ("routers", Json.Int rp.rp_routers);
    ("skipped_anycast", Json.Int rp.rp_skipped_anycast);
    ("time_s", Json.Float rp.rp_time_s);
    ( "faulted",
      Json.Bool (any_fault rp) );
  ]
