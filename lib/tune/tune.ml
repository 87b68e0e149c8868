module B = Beethoven

module Knobs = struct
  type t = { kn_cores : int; kn_batch : int; kn_core_cap : int }

  let default = { kn_cores = 2; kn_batch = 1; kn_core_cap = 2 }

  let render k =
    Printf.sprintf "cores=%d batch=%d cap=%d" k.kn_cores k.kn_batch
      k.kn_core_cap

  let key = render
end

type axis = Cores | Batch | Core_cap

let all_axes = [ Cores; Batch; Core_cap ]

let axis_name = function
  | Cores -> "cores"
  | Batch -> "batch"
  | Core_cap -> "core-cap"

let axis_of_name = function
  | "cores" -> Some Cores
  | "batch" -> Some Batch
  | "core-cap" | "cap" -> Some Core_cap
  | _ -> None

let axis_values = function
  | Cores -> [ 1; 2; 3; 4; 6; 8 ]
  | Batch -> [ 1; 2; 4; 8; 16 ]
  | Core_cap -> [ 1; 2; 4; 8 ]

let axis_get (k : Knobs.t) = function
  | Cores -> k.Knobs.kn_cores
  | Batch -> k.Knobs.kn_batch
  | Core_cap -> k.Knobs.kn_core_cap

let axis_set (k : Knobs.t) ax v =
  match ax with
  | Cores -> { k with Knobs.kn_cores = v }
  | Batch -> { k with Knobs.kn_batch = v }
  | Core_cap -> { k with Knobs.kn_core_cap = v }

type score = {
  sc_rps : float;
  sc_p99_us : float;
  sc_qdepth_p95 : float;
  sc_completed : int;
}

type outcome =
  | Infeasible of string
  | Evaluated of {
      ev_score : score;
      ev_wins : int;
      ev_losses : int;
      ev_promoted : bool;
    }

type candidate = { ca_id : int; ca_knobs : Knobs.t; ca_outcome : outcome }

type result = {
  r_seed : int;
  r_budget : int;
  r_axes : axis list;
  r_phase_ps : int;
  r_ab_rounds : int;
  r_candidates : candidate list;
  r_best : candidate;
  r_promotions : int;
  r_prefiltered : int;
  r_phases_run : int;
  r_cache_hits : int;
  r_cache_misses : int;
  r_cache_entries : int;
  r_violations : string list;
}

(* ------------------------------------------------------------------ *)
(* The fixed tuning workload                                          *)
(* ------------------------------------------------------------------ *)

(* Closed-loop tenants, so throughput reflects capacity (open-loop
   throughput just echoes the offered rate while underloaded): a
   backlogged bulk-copy tenant and a think-time interactive tenant. *)
let tenants () =
  [
    Serve.Tenant.make ~name:"bulk" ~clients:3 ~weight:2.0
      ~mix:[ Serve.Mix.memcpy ~bytes:16384 () ]
      ~load:(Serve.Tenant.closed_loop ~think_ps:0 ())
      ();
    Serve.Tenant.make ~name:"interactive" ~clients:2
      ~mix:[ Serve.Mix.vecadd ~bytes:4096 () ]
      ~load:(Serve.Tenant.closed_loop ~think_ps:5_000_000 ())
      ();
  ]

(* A candidate's deployed systems: the canonical serving systems at its
   core count, as its serving session elaborates them. *)
let config_of ~tenants (k : Knobs.t) =
  B.Config.make ~name:"tune"
    (List.map
       (fun kind -> Serve.system_of_kind kind ~n_cores:k.Knobs.kn_cores)
       (Serve.kinds_used tenants))

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-phase measurements plus the evaluation-level trace snapshot. *)
type evaluation = {
  el_phases : (int * float * float) list;  (* completed, rps, worst p99 us *)
  el_qdepth_p95 : float;
  el_violations : string list;
}

let phase_measure (r : Serve.report) =
  let completed =
    List.fold_left
      (fun a (t : Serve.tenant_report) -> a + t.Serve.tr_completed)
      0 r.Serve.r_tenants
  in
  let rps =
    List.fold_left
      (fun a (t : Serve.tenant_report) -> a +. t.Serve.tr_achieved_rps)
      0. r.Serve.r_tenants
  in
  let p99 =
    List.fold_left
      (fun a (t : Serve.tenant_report) ->
        match t.Serve.tr_total with
        | Some p -> Float.max a p.Serve.ph_p99_us
        | None -> a)
      0. r.Serve.r_tenants
  in
  (completed, rps, p99)

let mean_score (ev : evaluation) =
  let n = max 1 (List.length ev.el_phases) in
  let fn = float_of_int n in
  let completed, rps, p99 =
    List.fold_left
      (fun (c, r, p) (c', r', p') -> (c + c', r +. r', p +. p'))
      (0, 0., 0.) ev.el_phases
  in
  {
    sc_rps = rps /. fn;
    sc_p99_us = p99 /. fn;
    sc_qdepth_p95 = ev.el_qdepth_p95;
    sc_completed = completed;
  }

(* Paired sign test over phase i of each side: achieved rps (the
   statistic the score and the Pareto front rank by) first, p99 as the
   tiebreak. Returns (challenger wins, losses). *)
let ab_compare (inc : evaluation) (ch : evaluation) =
  List.fold_left2
    (fun (w, l) (_, ri, pi) (_, rc, pc) ->
      if rc > ri +. 1e-9 then (w + 1, l)
      else if rc < ri -. 1e-9 then (w, l + 1)
      else if pc < pi -. 1e-9 then (w + 1, l)
      else if pc > pi +. 1e-9 then (w, l + 1)
      else (w, l))
    (0, 0) inc.el_phases ch.el_phases

(* The promotion rule: strictly more paired wins than losses, and mean
   p99 must not regress by more than 10%. *)
let promotes ~(inc : score) ~(ch : score) ~wins ~losses =
  wins > losses && ch.sc_p99_us <= (inc.sc_p99_us *. 1.10) +. 1e-9

(* ------------------------------------------------------------------ *)
(* JSON / rendering helpers                                           *)
(* ------------------------------------------------------------------ *)

let knobs_json (k : Knobs.t) =
  Printf.sprintf
    "{\"cores\":%d,\"batch\":%d,\"core_cap\":%d}" k.Knobs.kn_cores
    k.Knobs.kn_batch k.Knobs.kn_core_cap

let candidate_json (c : candidate) =
  match c.ca_outcome with
  | Infeasible reason ->
      Printf.sprintf "{\"id\":%d,\"knobs\":%s,\"infeasible\":\"%s\"}" c.ca_id
        (knobs_json c.ca_knobs)
        (String.map (fun ch -> if ch = '"' then '\'' else ch) reason)
  | Evaluated e ->
      Printf.sprintf
        "{\"id\":%d,\"knobs\":%s,\"rps\":%.1f,\"p99_us\":%.3f,\"qdepth_p95\":%.1f,\"completed\":%d,\"wins\":%d,\"losses\":%d,\"promoted\":%b}"
        c.ca_id (knobs_json c.ca_knobs) e.ev_score.sc_rps
        e.ev_score.sc_p99_us e.ev_score.sc_qdepth_p95
        e.ev_score.sc_completed e.ev_wins e.ev_losses e.ev_promoted

(* ------------------------------------------------------------------ *)
(* Pareto front                                                       *)
(* ------------------------------------------------------------------ *)

let scored c =
  match c.ca_outcome with Evaluated e -> Some (c, e.ev_score) | _ -> None

let dominates (a : score) (b : score) =
  a.sc_rps >= b.sc_rps -. 1e-9
  && a.sc_p99_us <= b.sc_p99_us +. 1e-9
  && (a.sc_rps > b.sc_rps +. 1e-9 || a.sc_p99_us < b.sc_p99_us -. 1e-9)

let pareto (r : result) =
  let pts = List.filter_map scored r.r_candidates in
  let front =
    List.filter
      (fun (c, s) ->
        not
          (List.exists
             (fun (c', s') -> c'.ca_id <> c.ca_id && dominates s' s)
             pts))
      pts
  in
  (* a dominated duplicate knob-set can survive as an exact tie; keep the
     lowest id per knob key *)
  let seen = Hashtbl.create 8 in
  let front =
    List.filter
      (fun (c, _) ->
        let k = Knobs.key c.ca_knobs in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      (List.sort (fun (a, _) (b, _) -> compare a.ca_id b.ca_id) front)
  in
  List.map fst
    (List.sort
       (fun (a, sa) (b, sb) ->
         if sa.sc_rps <> sb.sc_rps then compare sb.sc_rps sa.sc_rps
         else if sa.sc_p99_us <> sb.sc_p99_us then
           compare sa.sc_p99_us sb.sc_p99_us
         else compare a.ca_id b.ca_id)
       front)

let pareto_json (r : result) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "{\"tune\":{\"seed\":%d,\"budget\":%d,\"axes\":[%s]," r.r_seed r.r_budget
    (String.concat ","
       (List.map (fun a -> Printf.sprintf "\"%s\"" (axis_name a)) r.r_axes));
  pf "\"phase_us\":%.3f,\"ab_rounds\":%d,"
    (float_of_int r.r_phase_ps /. 1e6)
    r.r_ab_rounds;
  pf "\"candidates\":%d,\"prefiltered\":%d,\"promotions\":%d,\"phases\":%d,"
    (List.length r.r_candidates)
    r.r_prefiltered r.r_promotions r.r_phases_run;
  pf "\"cache\":{\"hits\":%d,\"misses\":%d,\"entries\":%d}," r.r_cache_hits
    r.r_cache_misses r.r_cache_entries;
  pf "\"incumbent\":%s," (candidate_json r.r_best);
  pf "\"pareto\":[%s]}}\n"
    (String.concat "," (List.map candidate_json (pareto r)));
  Buffer.contents b

let render (r : result) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let front_ids = List.map (fun c -> c.ca_id) (pareto r) in
  pf "tune: seed %d, budget %d, %d phase(s) of %.0f us, axes [%s]\n" r.r_seed
    r.r_budget r.r_ab_rounds
    (float_of_int r.r_phase_ps /. 1e6)
    (String.concat ", " (List.map axis_name r.r_axes));
  pf "%-4s %-44s %12s %10s %6s %9s %s\n" "id" "knobs" "rps" "p99_us" "A/B"
    "promoted" "pareto";
  List.iter
    (fun c ->
      match c.ca_outcome with
      | Infeasible reason ->
          pf "%-4d %-44s %s\n" c.ca_id (Knobs.render c.ca_knobs)
            ("infeasible: " ^ reason)
      | Evaluated e ->
          pf "%-4d %-44s %12.1f %10.3f %3d-%-2d %9s %s\n" c.ca_id
            (Knobs.render c.ca_knobs) e.ev_score.sc_rps e.ev_score.sc_p99_us
            e.ev_wins e.ev_losses
            (if e.ev_promoted then "yes" else "-")
            (if List.mem c.ca_id front_ids then "*" else ""))
    r.r_candidates;
  pf "incumbent: id %d (%s)\n" r.r_best.ca_id (Knobs.render r.r_best.ca_knobs);
  pf "%d promotion(s), %d prefiltered, cache %d hit(s) %d miss(es) %d \
      entrie(s)\n"
    r.r_promotions r.r_prefiltered r.r_cache_hits r.r_cache_misses
    r.r_cache_entries;
  (match r.r_violations with
  | [] -> ()
  | vs -> List.iter (fun v -> pf "VIOLATION: %s\n" v) vs);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The search loop                                                    *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 42) ?(budget = 6) ?(axes = all_axes)
    ?(phase_ps = 100_000_000) ?(ab_rounds = 2)
    ?(platform = Platform.Device.aws_f1) ?(start = Knobs.default) () =
  if budget < 0 then invalid_arg "Tune.run: budget must be >= 0";
  if ab_rounds < 1 then invalid_arg "Tune.run: ab_rounds must be >= 1";
  if phase_ps < 1 then invalid_arg "Tune.run: phase_ps must be >= 1";
  if axes = [] then invalid_arg "Tune.run: no axes to search";
  let tenants = tenants () in
  let cache = B.Elaborate.Cache.create () in
  let rng = Fault.Rng.create ~seed:(Int64.of_int (seed lxor 0x7e57_7e57)) in
  let memo : (string, evaluation) Hashtbl.t = Hashtbl.create 16 in
  let phases_run = ref 0 in
  let violations = ref [] in
  (* one candidate's serving evaluation: a fresh session; phase i uses
     client-stream salt i, so every candidate sees byte-identical offered
     load *)
  let fresh_session k =
    let tracer = Trace.create () in
    let cfg =
      Serve.config ~seed ~duration_ps:phase_ps ~batch_max:k.Knobs.kn_batch
        ~core_cap:k.Knobs.kn_core_cap ~n_cores:k.Knobs.kn_cores ~tenants ()
    in
    (tracer, Serve.Session.create ~tracer ~platform cfg ())
  in
  let seal k tracer reports =
    let qdepth =
      List.fold_left
        (fun acc (name, s) ->
          if
            String.length name >= 8
            && String.sub name 0 8 = "serve.q."
          then Float.max acc s.Trace.Series.su_p95
          else acc)
        0.
        (Trace.Series.snapshot tracer)
    in
    let ev =
      {
        el_phases = List.map phase_measure reports;
        el_qdepth_p95 = qdepth;
        el_violations =
          List.concat_map
            (fun r ->
              List.map
                (fun v -> Knobs.render k ^ ": " ^ v)
                (Serve.violations r))
            reports;
      }
    in
    violations := !violations @ ev.el_violations;
    Hashtbl.replace memo (Knobs.key k) ev;
    ev
  in
  (* a candidate's evaluation, simulated once and then replayed from the
     memo: each session owns its SoC, engine and tracer, so a result does
     not depend on when it is simulated *)
  let evaluate k =
    match Hashtbl.find_opt memo (Knobs.key k) with
    | Some ev -> ev
    | None ->
        let tracer, sess = fresh_session k in
        seal k tracer
          (List.init ab_rounds (fun _ ->
               incr phases_run;
               Serve.Session.run_phase sess ~duration_ps:phase_ps))
  in
  let fit k = B.Dse.fit ~cache (config_of ~tenants k) platform in
  (match fit start with
  | Ok () -> ()
  | Error m -> invalid_arg ("Tune.run: start config infeasible: " ^ m));
  (* propose a seeded one-knob mutation of the incumbent, biased towards
     unseen knob combinations *)
  let seen_keys = Hashtbl.create 16 in
  Hashtbl.replace seen_keys (Knobs.key start) ();
  let mutate k =
    let usable =
      List.filter
        (fun ax ->
          List.exists (fun v -> v <> axis_get k ax) (axis_values ax))
        axes
    in
    match usable with
    | [] -> k
    | _ ->
        let ax =
          List.nth usable (Fault.Rng.int rng ~bound:(List.length usable))
        in
        let vals =
          List.filter (fun v -> v <> axis_get k ax) (axis_values ax)
        in
        axis_set k ax (List.nth vals (Fault.Rng.int rng ~bound:(List.length vals)))
    in
  let propose k =
    let rec go n best =
      if n = 0 then best
      else
        let c = mutate k in
        if Hashtbl.mem seen_keys (Knobs.key c) then go (n - 1) c else c
    in
    let c = go 8 k in
    Hashtbl.replace seen_keys (Knobs.key c) ();
    c
  in
  let candidates = ref [] in
  let incumbent = ref { ca_id = 0; ca_knobs = start; ca_outcome = Infeasible "pending" } in
  let promotions = ref 0 and prefiltered = ref 0 in
  for id = 1 to budget do
    let knobs = propose (!incumbent).ca_knobs in
    match fit knobs with
    | Error m ->
        incr prefiltered;
        candidates :=
          { ca_id = id; ca_knobs = knobs; ca_outcome = Infeasible m }
          :: !candidates
    | Ok () ->
        let inc_ev = evaluate (!incumbent).ca_knobs in
        let ch_ev = evaluate knobs in
        let inc_score = mean_score inc_ev in
        let ch_score = mean_score ch_ev in
        let wins, losses = ab_compare inc_ev ch_ev in
        let promoted =
          promotes ~inc:inc_score ~ch:ch_score ~wins ~losses
        in
        let cand =
          {
            ca_id = id;
            ca_knobs = knobs;
            ca_outcome =
              Evaluated
                {
                  ev_score = ch_score;
                  ev_wins = wins;
                  ev_losses = losses;
                  ev_promoted = promoted;
                };
          }
        in
        candidates := cand :: !candidates;
        if promoted then begin
          incr promotions;
          incumbent := cand
        end
  done;
  let seed_ev = evaluate start in
  let seed_cand =
    {
      ca_id = 0;
      ca_knobs = start;
      ca_outcome =
        Evaluated
          {
            ev_score = mean_score seed_ev;
            ev_wins = 0;
            ev_losses = 0;
            ev_promoted = false;
          };
    }
  in
  let best =
    if (!incumbent).ca_id = 0 then seed_cand else !incumbent
  in
  {
    r_seed = seed;
    r_budget = budget;
    r_axes = axes;
    r_phase_ps = phase_ps;
    r_ab_rounds = ab_rounds;
    r_candidates = seed_cand :: List.rev !candidates;
    r_best = best;
    r_promotions = !promotions;
    r_prefiltered = !prefiltered;
    r_phases_run = !phases_run;
    r_cache_hits = B.Elaborate.Cache.hits cache;
    r_cache_misses = B.Elaborate.Cache.misses cache;
    r_cache_entries = B.Elaborate.Cache.entries cache;
    r_violations = !violations;
  }
