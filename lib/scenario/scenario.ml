module Mix = Serve.Mix
module Tenant = Serve.Tenant
module Curve = Serve.Curve

(* ------------------------------------------------------------------ *)
(* Observations                                                       *)
(* ------------------------------------------------------------------ *)

type obs = {
  ob_tenants : Serve.tenant_report list;
  ob_quarantines : int;
  ob_promotions : int;
  ob_replays : int;
  ob_duplicates : int;
  ob_lost_acked : int;
  ob_injected : int;
  ob_recovered : int;
  ob_unrecovered : int;
  ob_wall_us : float;
  ob_health : (int * Cluster.Health.state) list;  (* device slot -> health *)
}

let empty_obs =
  {
    ob_tenants = [];
    ob_quarantines = 0;
    ob_promotions = 0;
    ob_replays = 0;
    ob_duplicates = 0;
    ob_lost_acked = 0;
    ob_injected = 0;
    ob_recovered = 0;
    ob_unrecovered = 0;
    ob_wall_us = 0.;
    ob_health = [];
  }

let obs_of_serve (r : Serve.report) =
  let inj = r.Serve.r_injector in
  let i f = match inj with Some i -> f i | None -> 0 in
  {
    empty_obs with
    ob_tenants = r.Serve.r_tenants;
    ob_quarantines = i Fault.Injector.quarantines;
    ob_injected = i Fault.Injector.total_injected;
    ob_recovered = i Fault.Injector.total_recovered;
    ob_unrecovered = i Fault.Injector.total_unrecovered;
    ob_wall_us = float_of_int r.Serve.r_wall_ps /. 1e6;
  }

let obs_of_cluster (r : Cluster.report) =
  let sum f =
    List.fold_left
      (fun a (d : Cluster.device_report) -> a + f d.Cluster.dr_injector)
      0 r.Cluster.c_devices
  in
  {
    ob_tenants = r.Cluster.c_tenants;
    ob_quarantines = r.Cluster.c_quarantines;
    ob_promotions = r.Cluster.c_promotions;
    ob_replays = r.Cluster.c_replays;
    ob_duplicates = r.Cluster.c_duplicates;
    ob_lost_acked = r.Cluster.c_lost_acked;
    ob_injected = sum Fault.Injector.total_injected;
    ob_recovered = sum Fault.Injector.total_recovered;
    ob_unrecovered = sum Fault.Injector.total_unrecovered;
    ob_wall_us = float_of_int r.Cluster.c_wall_ps /. 1e6;
    ob_health =
      List.mapi
        (fun i (d : Cluster.device_report) -> (i, d.Cluster.dr_state))
        r.Cluster.c_devices;
  }

(* ------------------------------------------------------------------ *)
(* Expressions and conditions                                         *)
(* ------------------------------------------------------------------ *)

type stat =
  | P50
  | P95
  | P99
  | Mean
  | Completed
  | Failed
  | Shed
  | Slo_violations
  | Offered
  | Achieved_rps

type counter =
  | Quarantines
  | Promotions
  | Replays
  | Duplicates
  | Lost_acked
  | Faults_injected
  | Faults_recovered
  | Faults_unrecovered
  | Wall_us

type expr =
  | Const of float
  | Var of string
  | Stat of stat * string  (* tenant name, or "*" for all tenants *)
  | Counter of counter

type cmp = Lt | Le | Gt | Ge | Eq

type cond =
  | Cmp of cmp * expr * expr
  | Health_is of int * Cluster.Health.state
  | All of cond list
  | Any of cond list
  | Not of cond

let stat_name = function
  | P50 -> "p50"
  | P95 -> "p95"
  | P99 -> "p99"
  | Mean -> "mean"
  | Completed -> "completed"
  | Failed -> "failed"
  | Shed -> "shed"
  | Slo_violations -> "slo_violations"
  | Offered -> "offered"
  | Achieved_rps -> "achieved_rps"

let counter_name = function
  | Quarantines -> "quarantines"
  | Promotions -> "promotions"
  | Replays -> "replays"
  | Duplicates -> "duplicates"
  | Lost_acked -> "lost_acked"
  | Faults_injected -> "faults_injected"
  | Faults_recovered -> "faults_recovered"
  | Faults_unrecovered -> "faults_unrecovered"
  | Wall_us -> "wall_us"

let cmp_name = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "="

(* Quantiles of a tenant's end-to-end latency, [None] when it completed
   nothing; counting stats over the tenant ledgers. *)
let stat_of_tr (s : stat) (tr : Serve.tenant_report) =
  let q f = Option.map f tr.Serve.tr_total in
  let count n = Some (float_of_int n) in
  match s with
  | P50 -> q (fun p -> p.Serve.ph_p50_us)
  | P95 -> q (fun p -> p.Serve.ph_p95_us)
  | P99 -> q (fun p -> p.Serve.ph_p99_us)
  | Mean -> q (fun p -> p.Serve.ph_mean_us)
  | Completed -> count tr.Serve.tr_completed
  | Failed -> count tr.Serve.tr_failed
  | Shed ->
      count
        (tr.Serve.tr_shed_queue + tr.Serve.tr_shed_deadline
       + tr.Serve.tr_shed_degraded)
  | Slo_violations -> count tr.Serve.tr_slo_violations
  | Offered -> count tr.Serve.tr_offered
  | Achieved_rps -> Some tr.Serve.tr_achieved_rps

let is_quantile = function P50 | P95 | P99 | Mean -> true | _ -> false

(* An expression that names something the run does not have: the node
   that evaluates it fails with this message. *)
exception Unresolved of string

(* An aggregate over "*" sums counts and takes the worst quantile among
   the tenants that have one. A quantile with no sample to take it over
   fails the node, as an unknown tenant does. *)
let eval_stat obs s tenant =
  let unresolved fmt =
    Printf.ksprintf
      (fun msg ->
        raise
          (Unresolved (Printf.sprintf "%s(%s): %s" (stat_name s) tenant msg)))
      fmt
  in
  let trs =
    if tenant = "*" then obs.ob_tenants
    else
      match
        List.find_opt (fun tr -> tr.Serve.tr_name = tenant) obs.ob_tenants
      with
      | Some tr -> [ tr ]
      | None -> unresolved "no tenant %S in the last observation" tenant
  in
  match List.filter_map (stat_of_tr s) trs with
  | [] when is_quantile s ->
      unresolved "no completed request in the last observation"
  | vs when is_quantile s -> List.fold_left Float.max 0. vs
  | vs -> List.fold_left ( +. ) 0. vs

let eval_counter obs = function
  | Quarantines -> float_of_int obs.ob_quarantines
  | Promotions -> float_of_int obs.ob_promotions
  | Replays -> float_of_int obs.ob_replays
  | Duplicates -> float_of_int obs.ob_duplicates
  | Lost_acked -> float_of_int obs.ob_lost_acked
  | Faults_injected -> float_of_int obs.ob_injected
  | Faults_recovered -> float_of_int obs.ob_recovered
  | Faults_unrecovered -> float_of_int obs.ob_unrecovered
  | Wall_us -> obs.ob_wall_us

let eval_expr env obs = function
  | Const v -> v
  | Var name -> (
      match List.assoc_opt name env with
      | Some v -> v
      | None ->
          raise (Unresolved (Printf.sprintf "$%s: unbound variable" name)))
  | Stat (s, tenant) -> eval_stat obs s tenant
  | Counter c -> eval_counter obs c

let rec eval_cond env obs = function
  | Cmp (op, a, b) -> (
      let va = eval_expr env obs a and vb = eval_expr env obs b in
      match op with
      | Lt -> va < vb
      | Le -> va <= vb
      | Gt -> va > vb
      | Ge -> va >= vb
      | Eq -> va = vb)
  | Health_is (dev, state) -> (
      match List.assoc_opt dev obs.ob_health with
      | Some s -> s = state
      | None ->
          raise
            (Unresolved
               (Printf.sprintf
                  "health(dev%d): no such slot in the last observation" dev)))
  | All cs -> List.for_all (eval_cond env obs) cs
  | Any cs -> List.exists (eval_cond env obs) cs
  | Not c -> not (eval_cond env obs c)

let render_expr = function
  | Const v -> Printf.sprintf "%g" v
  | Var name -> "$" ^ name
  | Stat (s, tenant) -> Printf.sprintf "%s(%s)" (stat_name s) tenant
  | Counter c -> counter_name c

let rec render_cond = function
  | Cmp (op, a, b) ->
      Printf.sprintf "%s %s %s" (render_expr a) (cmp_name op) (render_expr b)
  | Health_is (dev, state) ->
      Printf.sprintf "health(dev%d) is %s" dev (Cluster.Health.name state)
  | All cs -> "(" ^ String.concat " and " (List.map render_cond cs) ^ ")"
  | Any cs -> "(" ^ String.concat " or " (List.map render_cond cs) ^ ")"
  | Not c -> "not " ^ render_cond c

(* ------------------------------------------------------------------ *)
(* Actions and nodes                                                  *)
(* ------------------------------------------------------------------ *)

type action =
  | Serve_phase of {
      sp_label : string;
      sp_duration_ps : int;
      sp_tenants : Tenant.t list option;  (* single-device backend only *)
    }
  | Sleep of int
  | Inject_hang of { ih_dev : int; ih_system : int; ih_core : int; ih_after : int }
  | Kill of int
  | Restore of int
  | Promote
  | Checkpoint of string

type node =
  | Act of action
  | Let of string * expr
  | If of { if_cond : cond; if_then : node list; if_else : node list }
  | While of { w_cond : cond; w_max_trips : int; w_body : node list }
  | Assert of { a_cond : cond; a_msg : string }

let serve_phase ?tenants ~label ~duration_ps () =
  Act (Serve_phase { sp_label = label; sp_duration_ps = duration_ps; sp_tenants = tenants })

let action_label = function
  | Serve_phase { sp_label; _ } -> "serve:" ^ sp_label
  | Sleep d -> Printf.sprintf "sleep:%d" d
  | Inject_hang { ih_dev; ih_system; ih_core; ih_after } ->
      Printf.sprintf "inject-hang:dev%d.sys%d.core%d.after%d" ih_dev ih_system
        ih_core ih_after
  | Kill dev -> Printf.sprintf "kill:dev%d" dev
  | Restore dev -> Printf.sprintf "restore:dev%d" dev
  | Promote -> "promote"
  | Checkpoint label -> "checkpoint:" ^ label

let node_label = function
  | Act a -> action_label a
  | Let (name, e) -> Printf.sprintf "let:%s=%s" name (render_expr e)
  | If { if_cond; _ } -> "if:" ^ render_cond if_cond
  | While { w_cond; w_max_trips; _ } ->
      Printf.sprintf "while[%d]:%s" w_max_trips (render_cond w_cond)
  | Assert { a_cond; _ } -> "assert:" ^ render_cond a_cond

(* ------------------------------------------------------------------ *)
(* Scenarios                                                          *)
(* ------------------------------------------------------------------ *)

type backend =
  | Single of {
      sg_cfg : Serve.config;
      sg_plan : Fault.Plan.t option;
    }
  | Fleet of {
      fl_cfg : Cluster.config;
      fl_plan : Fault.Plan.t option;
    }

type t = {
  sc_name : string;
  sc_seed : int;
  sc_backend : backend;
  sc_nodes : node list;
}

(* executed-node budget: loops cannot run past it *)
let max_nodes = 256

let make ~name ~seed ~backend nodes =
  if nodes = [] then invalid_arg "Scenario.make: empty node list";
  { sc_name = name; sc_seed = seed; sc_backend = backend; sc_nodes = nodes }

(* ------------------------------------------------------------------ *)
(* Transcript                                                         *)
(* ------------------------------------------------------------------ *)

type entry = {
  en_id : int;  (* execution order *)
  en_node : string;  (* node label *)
  en_enter_ps : int;
  en_exit_ps : int;
  en_verdict : string;  (* "ok" / "ok (...)" / "fail: ..." *)
  en_bindings : (string * float) list;  (* env after the node, oldest first *)
}

type result = {
  res_scenario : string;
  res_seed : int;
  res_entries : entry list;  (* completion order *)
  res_failures : string list;
  res_ok : bool;
  res_obs : obs;  (* after the last node *)
}

(* ------------------------------------------------------------------ *)
(* Executor                                                           *)
(* ------------------------------------------------------------------ *)

type session = Sv of Serve.Session.t | Cl of Cluster.Session.t

exception Budget_exhausted

type exec = {
  ex_session : session;
  ex_tracer : Trace.t option;
  mutable ex_obs : obs;
  mutable ex_env : (string * float) list;  (* newest binding first *)
  mutable ex_entries : entry list;  (* reverse completion order *)
  mutable ex_failures : string list;  (* reverse *)
  mutable ex_count : int;  (* nodes executed *)
}

let ex_now ex =
  match ex.ex_session with
  | Sv s -> Serve.Session.now s
  | Cl s -> Cluster.Session.now s

let fail ex msg =
  ex.ex_failures <- msg :: ex.ex_failures;
  "fail: " ^ msg

(* Bindings snapshot for the transcript: oldest first, shadowed names
   dropped in favor of the newest binding. *)
let env_snapshot env =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem seen name) then Hashtbl.add seen name ())
    env;
  List.rev
    (List.filter
       (fun (name, _) ->
         if Hashtbl.mem seen name then begin
           Hashtbl.remove seen name;
           true
         end
         else false)
       env)

let exec_action ex = function
  | Serve_phase { sp_label; sp_duration_ps; sp_tenants } -> (
      match ex.ex_session with
      | Sv s -> (
          try
            let r =
              Serve.Session.run_phase ?tenants:sp_tenants s
                ~duration_ps:sp_duration_ps
            in
            ex.ex_obs <- obs_of_serve r;
            Printf.sprintf "ok (%s)" sp_label
          with Invalid_argument msg -> fail ex msg)
      | Cl s -> (
          match sp_tenants with
          | Some _ ->
              fail ex "phase tenant override requires a single-device backend"
          | None ->
              let r = Cluster.Session.run_phase s ~duration_ps:sp_duration_ps in
              ex.ex_obs <- obs_of_cluster r;
              Printf.sprintf "ok (%s)" sp_label))
  | Sleep delta_ps ->
      (match ex.ex_session with
      | Sv s -> Serve.Session.sleep s ~delta_ps
      | Cl s -> Cluster.Session.sleep s ~delta_ps);
      "ok"
  | Inject_hang { ih_dev; ih_system; ih_core; ih_after } -> (
      let inj =
        match ex.ex_session with
        | Sv s -> if ih_dev <> 0 then None else Serve.Session.injector s
        | Cl s -> (
            let r = Cluster.Session.snapshot s in
            match List.nth_opt r.Cluster.c_devices ih_dev with
            | Some d -> Some d.Cluster.dr_injector
            | None -> None)
      in
      match inj with
      | Some inj ->
          Fault.Injector.set_hang ~after:ih_after inj ~system:ih_system
            ~core:ih_core;
          "ok"
      | None -> fail ex "no fault injector on the target device")
  | Kill dev -> (
      match ex.ex_session with
      | Sv _ -> fail ex "kill requires a fleet backend"
      | Cl s -> (
          try
            Cluster.Session.kill s ~dev;
            ex.ex_obs <- obs_of_cluster (Cluster.Session.snapshot s);
            "ok"
          with Invalid_argument msg -> fail ex msg))
  | Restore dev -> (
      match ex.ex_session with
      | Sv _ -> fail ex "restore requires a fleet backend"
      | Cl s -> (
          try
            Cluster.Session.restore s ~dev;
            ex.ex_obs <- obs_of_cluster (Cluster.Session.snapshot s);
            "ok"
          with Invalid_argument msg -> fail ex msg))
  | Promote -> (
      match ex.ex_session with
      | Sv _ -> fail ex "promote requires a fleet backend"
      | Cl s ->
          if Cluster.Session.promote_standby s then begin
            ex.ex_obs <- obs_of_cluster (Cluster.Session.snapshot s);
            "ok"
          end
          else fail ex "no standby device available to promote")
  | Checkpoint label -> (
      match ex.ex_session with
      | Sv s -> (
          try
            ex.ex_obs <- obs_of_serve (Serve.Session.snapshot s);
            Printf.sprintf "ok (%s)" label
          with Invalid_argument _ -> Printf.sprintf "ok (%s, no report yet)" label)
      | Cl s ->
          ex.ex_obs <- obs_of_cluster (Cluster.Session.snapshot s);
          Printf.sprintf "ok (%s)" label)

let rec exec_node ex node =
  if ex.ex_count >= max_nodes then raise Budget_exhausted;
  ex.ex_count <- ex.ex_count + 1;
  let id = ex.ex_count - 1 in
  let enter = ex_now ex in
  let verdict =
    try
      match node with
      | Act a -> exec_action ex a
      | Let (name, e) ->
          let v = eval_expr ex.ex_env ex.ex_obs e in
          ex.ex_env <- (name, v) :: ex.ex_env;
          Printf.sprintf "ok (%s=%.6f)" name v
      | If { if_cond; if_then; if_else } ->
          let taken = eval_cond ex.ex_env ex.ex_obs if_cond in
          List.iter (exec_node ex) (if taken then if_then else if_else);
          Printf.sprintf "ok (%s)" (if taken then "then" else "else")
      | While { w_cond; w_max_trips; w_body } ->
          let trips = ref 0 in
          while
            !trips < w_max_trips && eval_cond ex.ex_env ex.ex_obs w_cond
          do
            incr trips;
            List.iter (exec_node ex) w_body
          done;
          Printf.sprintf "ok (%d trips)" !trips
      | Assert { a_cond; a_msg } ->
          if eval_cond ex.ex_env ex.ex_obs a_cond then "ok"
          else fail ex (Printf.sprintf "%s: %s" a_msg (render_cond a_cond))
    with Unresolved msg -> fail ex msg
  in
  let exit_ = ex_now ex in
  (match ex.ex_tracer with
  | None -> ()
  | Some tr ->
      ignore
        (Trace.complete_span tr ~start:enter ~stop:(max exit_ (enter + 1))
           ~track:"scenario" ~cat:"scenario" ~name:(node_label node)
           ~args:[ ("verdict", Trace.Str verdict); ("node", Trace.Int id) ]
           ()));
  ex.ex_entries <-
    {
      en_id = id;
      en_node = node_label node;
      en_enter_ps = enter;
      en_exit_ps = exit_;
      en_verdict = verdict;
      en_bindings = env_snapshot ex.ex_env;
    }
    :: ex.ex_entries

let run ?tracer sc =
  let session =
    match sc.sc_backend with
    | Single { sg_cfg; sg_plan } ->
        Sv (Serve.Session.create ?tracer ?plan:sg_plan sg_cfg ())
    | Fleet { fl_cfg; fl_plan } ->
        Cl (Cluster.Session.create ?tracer ?plan:fl_plan fl_cfg ())
  in
  let ex =
    {
      ex_session = session;
      ex_tracer = tracer;
      ex_obs = empty_obs;
      ex_env = [];
      ex_entries = [];
      ex_failures = [];
      ex_count = 0;
    }
  in
  (try List.iter (exec_node ex) sc.sc_nodes
   with Budget_exhausted ->
     ex.ex_failures <-
       Printf.sprintf "node budget exhausted (%d)" max_nodes
       :: ex.ex_failures);
  let failures = List.rev ex.ex_failures in
  {
    res_scenario = sc.sc_name;
    res_seed = sc.sc_seed;
    res_entries = List.rev ex.ex_entries;
    res_failures = failures;
    res_ok = failures = [];
    res_obs = ex.ex_obs;
  }

(* ------------------------------------------------------------------ *)
(* Transcript rendering                                               *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One entry per line: diffable, and byte-identical for a fixed seed
   (floats printed with a fixed %.6f format). *)
let transcript_json res =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "{\"scenario\":\"%s\",\"seed\":%d,\"ok\":%b,\n" (json_escape res.res_scenario)
    res.res_seed res.res_ok;
  pf "\"failures\":[%s],\n"
    (String.concat ","
       (List.map (fun f -> "\"" ^ json_escape f ^ "\"") res.res_failures));
  pf "\"entries\":[\n";
  let n = List.length res.res_entries in
  List.iteri
    (fun i en ->
      pf
        "{\"id\":%d,\"node\":\"%s\",\"enter_ps\":%d,\"exit_ps\":%d,\"verdict\":\"%s\",\"bindings\":{%s}}%s\n"
        en.en_id (json_escape en.en_node) en.en_enter_ps en.en_exit_ps
        (json_escape en.en_verdict)
        (String.concat ","
           (List.map
              (fun (name, v) ->
                Printf.sprintf "\"%s\":%.6f" (json_escape name) v)
              en.en_bindings))
        (if i = n - 1 then "" else ","))
    res.res_entries;
  pf "]}\n";
  Buffer.contents b

let render res =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "scenario %s: seed=%d %s\n" res.res_scenario res.res_seed
    (if res.res_ok then "OK" else "FAILED");
  List.iter
    (fun en ->
      pf "  #%-3d [%10.1f .. %10.1f us] %-44s %s\n" en.en_id
        (float_of_int en.en_enter_ps /. 1e6)
        (float_of_int en.en_exit_ps /. 1e6)
        en.en_node en.en_verdict)
    res.res_entries;
  List.iter (fun f -> pf "  failure: %s\n" f) res.res_failures;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Bundled scenarios                                                  *)
(* ------------------------------------------------------------------ *)

let us n = n * 1_000_000

(* Warm up, ramp the offered load along a piecewise curve, arm a core
   hang mid-story, serve through the hang (watchdog detects, retries,
   quarantines the core, recovers every command), then cool down until
   the tail latency is back under the bar. *)
let warmup_ramp_hang_recover ~seed =
  let phase_ps = us 200 in
  let tenant ?curve ~rate_rps () =
    Tenant.make ~name:"app" ~clients:4 ~queue_cap:128 ~slo_ps:(us 300)
      ~deadline_ps:(us 600) ~mix:Mix.heterogeneous
      ~load:(Tenant.open_loop ?curve ~rate_rps ())
      ()
  in
  let cfg =
    Serve.config ~seed ~duration_ps:phase_ps
      ~tenants:[ tenant ~rate_rps:50_000. () ]
      ()
  in
  let ramp =
    Curve.make [ (0, 50_000.); (phase_ps, 300_000.) ]
  in
  make ~name:"warmup-ramp-hang-recover" ~seed
    ~backend:
      (Single
         {
           sg_cfg = cfg;
           sg_plan = Some { Fault.Plan.none with Fault.Plan.seed };
         })
    [
      serve_phase ~label:"warm" ~duration_ps:phase_ps ();
      serve_phase ~label:"ramp" ~duration_ps:phase_ps
        ~tenants:[ tenant ~curve:ramp ~rate_rps:0. () ]
        ();
      Let ("p95_ramp", Stat (P95, "app"));
      Act
        (Inject_hang { ih_dev = 0; ih_system = 0; ih_core = 0; ih_after = 1 });
      serve_phase ~label:"hang" ~duration_ps:phase_ps ();
      Assert
        {
          a_cond = Cmp (Ge, Counter Quarantines, Const 1.);
          a_msg = "the hung core was never quarantined";
        };
      Assert
        {
          a_cond = Cmp (Ge, Counter Faults_recovered, Const 1.);
          a_msg = "no command recovered from the hang";
        };
      Assert
        {
          a_cond = Cmp (Le, Counter Faults_unrecovered, Const 0.);
          a_msg = "commands were lost to the hang";
        };
      While
        {
          w_cond = Cmp (Gt, Stat (P95, "app"), Const 250.);
          w_max_trips = 3;
          w_body = [ serve_phase ~label:"cool" ~duration_ps:phase_ps () ];
        };
      Assert
        {
          a_cond =
            All
              [
                Cmp (Lt, Stat (P95, "app"), Const 250.);
                Cmp (Ge, Stat (Completed, "app"), Const 1.);
                Cmp (Le, Stat (Failed, "app"), Const 0.);
              ];
          a_msg = "tail latency never recovered after the hang";
        };
    ]

(* One simulated day: trough, diurnal sweep up through saturation and
   back down, then an evening trough phase that must meet the SLO again
   — the report has to show saturation sheds during the day and a clean
   recovery after it. *)
let diurnal_daycycle ~seed =
  let phase_ps = us 250 in
  let tenant ?curve ~rate_rps () =
    Tenant.make ~name:"web" ~clients:4 ~queue_cap:64 ~slo_ps:(us 200)
      ~deadline_ps:(us 400)
      ~mix:[ Mix.memcpy ~bytes:(4 * 1024) () ]
      ~load:(Tenant.open_loop ?curve ~rate_rps ())
      ()
  in
  let day =
    Curve.diurnal ~period_ps:phase_ps ~trough_rps:10_000. ~peak_rps:5_000_000.
  in
  let cfg =
    Serve.config ~seed ~duration_ps:phase_ps
      ~tenants:[ tenant ~rate_rps:10_000. () ]
      ()
  in
  make ~name:"diurnal-daycycle" ~seed
    ~backend:(Single { sg_cfg = cfg; sg_plan = None })
    [
      serve_phase ~label:"night" ~duration_ps:phase_ps ();
      Let ("p95_night", Stat (P95, "web"));
      serve_phase ~label:"day" ~duration_ps:phase_ps
        ~tenants:[ tenant ~curve:day ~rate_rps:0. () ]
        ();
      Let ("p95_day", Stat (P95, "web"));
      Let ("shed_day", Stat (Shed, "web"));
      Assert
        {
          a_cond = Cmp (Gt, Var "shed_day", Const 0.);
          a_msg = "the midday peak never saturated the device";
        };
      Assert
        {
          a_cond = Cmp (Gt, Var "p95_day", Var "p95_night");
          a_msg = "saturation left no latency signature";
        };
      serve_phase ~label:"evening" ~duration_ps:phase_ps ();
      Assert
        {
          a_cond =
            All
              [
                Cmp (Lt, Stat (P95, "web"), Var "p95_day");
                Cmp (Le, Stat (Shed, "web"), Const 0.);
                Cmp (Ge, Stat (Completed, "web"), Const 1.);
              ];
          a_msg = "the SLO did not recover after the diurnal peak";
        };
    ]

(* Peak traffic on a 3-slot fleet (2 warm + 1 standby), then the loaded
   device drops off the host link mid-story: heartbeats miss, the slot
   is quarantined and drained, its tenants re-shard, unacked commands
   replay elsewhere — and the cumulative ledgers must show zero lost
   acked commands end to end. *)
let failover_under_peak ~seed =
  let phase_ps = us 300 in
  let tenants =
    [
      Tenant.make ~name:"gold" ~weight:2.0 ~clients:4 ~queue_cap:128
        ~slo_ps:(us 300) ~deadline_ps:(us 900)
        ~mix:[ Mix.memcpy ~bytes:(16 * 1024) () ]
        ~load:(Tenant.open_loop ~rate_rps:40_000. ())
        ();
      Tenant.make ~name:"bronze" ~clients:4 ~queue_cap:128 ~slo_ps:(us 300)
        ~deadline_ps:(us 900)
        ~mix:[ Mix.memcpy ~bytes:(4 * 1024) (); Mix.vecadd ~bytes:(4 * 1024) () ]
        ~load:(Tenant.open_loop ~rate_rps:40_000. ())
        ();
    ]
  in
  let cfg =
    Cluster.config ~seed ~duration_ps:phase_ps ~devices:3 ~warm:2 ~tenants ()
  in
  make ~name:"failover-under-peak" ~seed
    ~backend:(Fleet { fl_cfg = cfg; fl_plan = None })
    [
      serve_phase ~label:"steady" ~duration_ps:phase_ps ();
      Let ("completed_steady", Stat (Completed, "*"));
      Act (Kill 0);
      serve_phase ~label:"failover" ~duration_ps:phase_ps ();
      Assert
        {
          a_cond = Cmp (Ge, Counter Quarantines, Const 1.);
          a_msg = "the killed device was never quarantined";
        };
      Assert
        {
          a_cond = Health_is (0, Cluster.Health.Dead);
          a_msg = "the killed device is not dead after its drain";
        };
      Act (Restore 0);
      Assert
        {
          a_cond = Health_is (0, Cluster.Health.Standby);
          a_msg = "the restored device did not rejoin the standby pool";
        };
      serve_phase ~label:"tail" ~duration_ps:phase_ps ();
      Assert
        {
          a_cond =
            All
              [
                Cmp (Eq, Counter Lost_acked, Const 0.);
                Cmp (Gt, Stat (Completed, "*"), Var "completed_steady");
              ];
          a_msg = "acked commands were lost across the failover";
        };
    ]

let bundled =
  [
    ("warmup-ramp-hang-recover", fun ~seed -> warmup_ramp_hang_recover ~seed);
    ("diurnal-daycycle", fun ~seed -> diurnal_daycycle ~seed);
    ("failover-under-peak", fun ~seed -> failover_under_peak ~seed);
  ]

let find_bundled name = List.assoc_opt name bundled
