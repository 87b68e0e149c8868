module B = Beethoven
module Soc = B.Soc
module H = Runtime.Handle
module S = Desim.Stats

(* ------------------------------------------------------------------ *)
(* Workload description                                               *)
(* ------------------------------------------------------------------ *)

module Mix = struct
  type kind = Memcpy | Vecadd | Sort

  type klass = {
    k_label : string;
    k_kind : kind;
    k_bytes : int;
    k_weight : float;
  }

  type t = klass list

  let kind_system = function
    | Memcpy -> "Memcpy"
    | Vecadd -> "VecAdd"
    | Sort -> "Sort"

  (* Payloads are rounded to the 64 B beat granule so every request maps
     onto whole bursts; vecadd additionally needs 4 B elements, which 64
     already guarantees. *)
  let round64 b = ((max 64 b) + 63) / 64 * 64

  let human b =
    if b >= 1024 && b mod 1024 = 0 then Printf.sprintf "%dk" (b / 1024)
    else Printf.sprintf "%db" b

  let memcpy ?label ?(weight = 1.0) ~bytes () =
    let b = round64 bytes in
    let k_label =
      match label with
      | Some l -> l
      | None -> Printf.sprintf "memcpy-%s" (human b)
    in
    { k_label; k_kind = Memcpy; k_bytes = b; k_weight = weight }

  let vecadd ?label ?(weight = 1.0) ~bytes () =
    let b = round64 bytes in
    let k_label =
      match label with
      | Some l -> l
      | None -> Printf.sprintf "vecadd-%s" (human b)
    in
    { k_label; k_kind = Vecadd; k_bytes = b; k_weight = weight }

  (* The MachSuite merge-sort kernel sorts a fixed 2048-element working
     set, so the class's payload is pinned to the kernel's buffer
     footprint rather than caller-chosen. *)
  let sort ?label ?(weight = 1.0) () =
    let b = Kernels.Machsuite_extra.(out_bytes Merge_sort) in
    let k_label =
      match label with Some l -> l | None -> Printf.sprintf "sort-%s" (human b)
    in
    { k_label; k_kind = Sort; k_bytes = b; k_weight = weight }

  let default =
    [
      memcpy ~weight:3.0 ~bytes:(4 * 1024) ();
      memcpy ~weight:2.0 ~bytes:(16 * 1024) ();
      memcpy ~weight:1.0 ~bytes:(64 * 1024) ();
      vecadd ~weight:2.0 ~bytes:(4 * 1024) ();
    ]

  let heterogeneous =
    default @ [ sort ~weight:1.0 () ]
end

(* ------------------------------------------------------------------ *)
(* Piecewise-linear rate curves                                       *)
(* ------------------------------------------------------------------ *)

module Curve = struct
  (* (time_ps, rps) breakpoints with strictly increasing times; the
     rate is linearly interpolated between breakpoints and clamped to
     the first/last rate outside them. *)
  type t = (int * float) array

  let make pts =
    if pts = [] then invalid_arg "Serve.Curve.make: empty breakpoint list";
    let a = Array.of_list pts in
    Array.iteri
      (fun i (tm, r) ->
        if r < 0. then invalid_arg "Serve.Curve.make: negative rate";
        if tm < 0 then invalid_arg "Serve.Curve.make: negative time";
        if i > 0 && tm <= fst a.(i - 1) then
          invalid_arg "Serve.Curve.make: times must be strictly increasing")
      a;
    a

  let const r = make [ (0, r) ]

  let breakpoints c = Array.to_list c

  let rate_at c ~at_ps =
    let n = Array.length c in
    let t0, r0 = c.(0) and tn, rn = c.(n - 1) in
    if at_ps <= t0 then r0
    else if at_ps >= tn then rn
    else begin
      (* find the segment [i, i+1] with t_i <= at_ps < t_{i+1} *)
      let i = ref 0 in
      while fst c.(!i + 1) <= at_ps do
        incr i
      done;
      let ta, ra = c.(!i) and tb, rb = c.(!i + 1) in
      let f = float_of_int (at_ps - ta) /. float_of_int (tb - ta) in
      ra +. (f *. (rb -. ra))
    end

  let max_rate c = Array.fold_left (fun m (_, r) -> Float.max m r) 0. c

  (* A curve whose every breakpoint carries the same rate degenerates to
     a constant: arrival generation takes the exact single-rate path, so
     a constant curve is byte-identical to no curve at all. *)
  let constant_rate c =
    let _, r0 = c.(0) in
    if Array.for_all (fun (_, r) -> r = r0) c then Some r0 else None

  (* One day cycle: overnight trough, linear morning ramp, a flat midday
     peak plateau, evening fall-off back to the trough. *)
  let diurnal ~period_ps ~trough_rps ~peak_rps =
    if period_ps < 10 then invalid_arg "Serve.Curve.diurnal: period too short";
    make
      [
        (0, trough_rps);
        (period_ps / 10, trough_rps);
        (4 * period_ps / 10, peak_rps);
        (6 * period_ps / 10, peak_rps);
        (9 * period_ps / 10, trough_rps);
        (period_ps, trough_rps);
      ]

  let render c =
    String.concat " "
      (List.map (fun (tm, r) -> Printf.sprintf "%d:%.0f" tm r) (breakpoints c))
end

module Tenant = struct
  type load =
    | Open_loop of { rate_rps : float; rate_curve : Curve.t option }
    | Closed_loop of { think_ps : int }

  let open_loop ?curve ~rate_rps () =
    Open_loop { rate_rps; rate_curve = curve }

  let closed_loop ~think_ps () = Closed_loop { think_ps }

  type t = {
    t_name : string;
    t_weight : float;
    t_clients : int;
    t_load : load;
    t_slo_ps : int;
    t_deadline_ps : int;
    t_queue_cap : int;
    t_mix : Mix.t;
  }

  let make ?(weight = 1.0) ?(clients = 4) ?(slo_ps = 150_000_000)
      ?(deadline_ps = 600_000_000) ?(queue_cap = 64) ?(mix = Mix.default)
      ~name ~load () =
    if weight <= 0. then invalid_arg "Serve.Tenant.make: weight must be > 0";
    if clients < 1 then invalid_arg "Serve.Tenant.make: clients must be >= 1";
    if queue_cap < 1 then
      invalid_arg "Serve.Tenant.make: queue_cap must be >= 1";
    if mix = [] then invalid_arg "Serve.Tenant.make: empty mix";
    {
      t_name = name;
      t_weight = weight;
      t_clients = clients;
      t_load = load;
      t_slo_ps = slo_ps;
      t_deadline_ps = deadline_ps;
      t_queue_cap = queue_cap;
      t_mix = mix;
    }
end

type shed_reason = Shed_queue_full | Shed_deadline | Shed_degradation

let shed_reason_name = function
  | Shed_queue_full -> "queue-full"
  | Shed_deadline -> "deadline"
  | Shed_degradation -> "degradation"

type policy = Wfq | Fifo

let policy_name = function Wfq -> "wfq" | Fifo -> "fifo"

let policy_of_name = function
  | "wfq" -> Some Wfq
  | "fifo" -> Some Fifo
  | _ -> None

type config = {
  c_seed : int;
  c_duration_ps : int;
  c_tenants : Tenant.t list;
  c_policy : policy;
  c_batch_max : int;
  c_core_cap : int;
  c_n_cores : int;
}

let config ?(seed = 42) ?(duration_ps = 2_000_000_000) ?(policy = Wfq)
    ?(batch_max = 8) ?(core_cap = 4) ?(n_cores = 4) ~tenants () =
  if tenants = [] then invalid_arg "Serve.config: no tenants";
  if duration_ps < 1 then invalid_arg "Serve.config: duration must be >= 1";
  if batch_max < 1 then invalid_arg "Serve.config: batch_max must be >= 1";
  if core_cap < 1 then invalid_arg "Serve.config: core_cap must be >= 1";
  if n_cores < 1 then invalid_arg "Serve.config: n_cores must be >= 1";
  {
    c_seed = seed;
    c_duration_ps = duration_ps;
    c_tenants = tenants;
    c_policy = policy;
    c_batch_max = batch_max;
    c_core_cap = core_cap;
    c_n_cores = n_cores;
  }

(* ------------------------------------------------------------------ *)
(* Clients                                                            *)
(* ------------------------------------------------------------------ *)

let draw_class rng (mix : Mix.t) =
  let total = List.fold_left (fun a k -> a +. k.Mix.k_weight) 0. mix in
  let u = Fault.Rng.float rng *. total in
  let rec go u = function
    | [ k ] -> k
    | k :: tl -> if u < k.Mix.k_weight then k else go (u -. k.Mix.k_weight) tl
    | [] -> assert false
  in
  go u mix

let exp_draw rng ~mean_ps =
  let u = Fault.Rng.float rng in
  max 1 (int_of_float (-.log (1. -. u) *. mean_ps))

(* Every client owns a splitmix64 stream derived from (campaign seed,
   phase salt, tenant index, client index) only — arrivals, sizes and
   think times never depend on completion order, so the offered load is
   identical across policies and fault plans. Salt 0 (the default, and
   every single-phase campaign) reproduces the historical derivation
   exactly; session phases salt by phase index so successive phases
   draw mutually independent streams. *)
let client_rng ?(salt = 0) ~seed ~tenant ~client () =
  Fault.Rng.create
    ~seed:
      (Int64.of_int
         ((seed * 1_000_003) + (salt * 523_717) + (tenant * 8191)
         + (client * 131) + 17))

(* The seeded client machinery, shared by the single-SoC campaign, the
   session phases, and the cluster layer. Arrivals are generated on
   [engine] in [now, horizon); [offer] admits one request for tenant
   [tenant] and returns false when shed at admission.

   Open-loop clients without a curve (or with a constant one — see
   [Curve.constant_rate]) draw exponential inter-arrivals at the fixed
   rate: exactly the historical draw sequence. A genuinely time-varying
   curve generates a non-homogeneous Poisson process by Lewis-Shedler
   thinning: candidate arrivals at the curve's max rate, each accepted
   with probability rate(now - t0) / max_rate. [t0] anchors curve time
   (a phase started at t0 evaluates the curve from 0 at t0). *)
let spawn_clients ~engine ~seed ?(salt = 0) ~horizon ?(t0 = 0) ~tenants
    ~offer () =
  List.iteri
    (fun ti t ->
      for ci = 0 to t.Tenant.t_clients - 1 do
        let rng = client_rng ~salt ~seed ~tenant:ti ~client:ci () in
        match t.Tenant.t_load with
        | Tenant.Open_loop { rate_rps; rate_curve } -> (
            let constant rate =
              if rate <= 0. then
                invalid_arg "Serve: open-loop rate must be > 0";
              let mean_ps = 1e12 /. rate in
              let rec arrive () =
                if Desim.Engine.now engine < horizon then begin
                  ignore
                    (offer ~tenant:ti ~klass:(draw_class rng t.Tenant.t_mix)
                       ~k:None);
                  Desim.Engine.schedule engine ~delay:(exp_draw rng ~mean_ps)
                    arrive
                end
              in
              Desim.Engine.schedule engine ~delay:(exp_draw rng ~mean_ps)
                arrive
            in
            match rate_curve with
            | None -> constant rate_rps
            | Some c -> (
                match Curve.constant_rate c with
                | Some r -> constant r
                | None ->
                    let lmax = Curve.max_rate c in
                    let mean_ps = 1e12 /. lmax in
                    let rec arrive () =
                      let now = Desim.Engine.now engine in
                      if now < horizon then begin
                        if
                          Fault.Rng.float rng *. lmax
                          < Curve.rate_at c ~at_ps:(now - t0)
                        then
                          ignore
                            (offer ~tenant:ti
                               ~klass:(draw_class rng t.Tenant.t_mix)
                               ~k:None);
                        Desim.Engine.schedule engine
                          ~delay:(exp_draw rng ~mean_ps)
                          arrive
                      end
                    in
                    Desim.Engine.schedule engine
                      ~delay:(exp_draw rng ~mean_ps)
                      arrive))
        | Tenant.Closed_loop { think_ps } ->
            let rec issue () =
              if Desim.Engine.now engine < horizon then begin
                let k () =
                  Desim.Engine.schedule engine ~delay:(max 1 think_ps) issue
                in
                if
                  not
                    (offer ~tenant:ti
                       ~klass:(draw_class rng t.Tenant.t_mix)
                       ~k:(Some k))
                then
                  (* admission shed: back off so a full queue is retried
                     at queue-drain granularity, not every tick *)
                  Desim.Engine.schedule engine
                    ~delay:(max think_ps 1_000_000)
                    issue
              end
            in
            (* stagger the initial burst deterministically *)
            Desim.Engine.schedule engine
              ~delay:(1 + Fault.Rng.int rng ~bound:(max 1 (think_ps + 1)))
              issue
      done)
    tenants

(* ------------------------------------------------------------------ *)
(* Results                                                            *)
(* ------------------------------------------------------------------ *)

type phase = {
  ph_n : int;
  ph_mean_us : float;
  ph_p50_us : float;
  ph_p95_us : float;
  ph_p99_us : float;
  ph_p999_us : float;
}

type tenant_report = {
  tr_name : string;
  tr_weight : float;
  tr_offered : int;
  tr_admitted : int;
  tr_shed_queue : int;
  tr_shed_deadline : int;
  tr_shed_degraded : int;
  tr_completed : int;
  tr_failed : int;
  tr_bad_responses : int;
  tr_slo_violations : int;
  tr_bytes_served : int;
  tr_offered_rps : float;
  tr_achieved_rps : float;
  tr_queue : phase option;
  tr_service : phase option;
  tr_collect : phase option;
  tr_total : phase option;
}

type report = {
  r_seed : int;
  r_policy : policy;
  r_duration_ps : int;
  r_wall_ps : int;
  r_tenants : tenant_report list;
  r_batches : int;
  r_batched_commands : int;
  r_server_busy_ps : int;
  r_dispatched_per_core : (string * int array) list;
  r_stuck : int;
  r_alloc_ok : bool;
  r_leaked_blocks : int;
  r_free_delta : int;
  r_injector : Fault.Injector.t option;
}

let phase_of series =
  match S.summarize_opt series with
  | None -> None
  | Some s ->
      let q q =
        match S.quantile_opt series ~q with Some v -> v | None -> 0.
      in
      Some
        {
          ph_n = s.S.n;
          ph_mean_us = s.S.mean;
          ph_p50_us = q 0.5;
          ph_p95_us = q 0.95;
          ph_p99_us = q 0.99;
          ph_p999_us = q 0.999;
        }

(* ------------------------------------------------------------------ *)
(* Dispatch core, shared with the cluster layer                       *)
(* ------------------------------------------------------------------ *)

module Dispatch = struct
  type req = {
    rq_id : int;
    rq_tenant : int;
    rq_sys : int;
    rq_class : Mix.klass;
    rq_arrival : int;
    rq_deadline : int;
    mutable rq_attempts : int;
    rq_k : (unit -> unit) option;  (* closed-loop continuation *)
  }

  type ledger = {
    l_t : Tenant.t;
    l_index : int;
    mutable l_site : int;
    l_queue : req Queue.t;
    mutable l_vft : float;  (* SFQ finish tag of the last dispatch *)
    mutable l_offered : int;
    mutable l_admitted : int;
    mutable l_shed_queue : int;
    mutable l_shed_deadline : int;
    mutable l_shed_degraded : int;
    mutable l_completed : int;
    mutable l_failed : int;
    mutable l_bad : int;
    mutable l_slo_viol : int;
    mutable l_bytes : int;
    l_q_wait : S.series;  (* all four in microseconds *)
    l_service : S.series;
    l_collect : S.series;
    l_total : S.series;
  }

  type site = {
    si_slot : int;
    si_handle : H.t;
    si_out : int array array;
    si_cap : int;
    mutable si_v : float;
  }

  type t = {
    d_engine : Desim.Engine.t;
    d_tracer : Trace.t option;
    d_layer : string;
    d_tenant_series : bool;
    d_sys : int array;  (* kind tag -> deployed system index, -1 if none *)
    d_tenants : ledger array;
    mutable d_next_id : int;
  }

  let kind_tag = function Mix.Memcpy -> 0 | Mix.Vecadd -> 1 | Mix.Sort -> 2

  let create ~engine ?tracer ~layer ~tenant_series ~kinds ~site tenants =
    let d_sys = Array.make 3 (-1) in
    List.iteri (fun i k -> d_sys.(kind_tag k) <- i) kinds;
    let ledger i t =
      {
        l_t = t;
        l_index = i;
        l_site = site;
        l_queue = Queue.create ();
        l_vft = 0.;
        l_offered = 0;
        l_admitted = 0;
        l_shed_queue = 0;
        l_shed_deadline = 0;
        l_shed_degraded = 0;
        l_completed = 0;
        l_failed = 0;
        l_bad = 0;
        l_slo_viol = 0;
        l_bytes = 0;
        l_q_wait = S.series ();
        l_service = S.series ();
        l_collect = S.series ();
        l_total = S.series ();
      }
    in
    {
      d_engine = engine;
      d_tracer = tracer;
      d_layer = layer;
      d_tenant_series = tenant_series;
      d_sys;
      d_tenants = Array.of_list (List.mapi ledger tenants);
      d_next_id = 0;
    }

  let site ~slot ~handle ~n_sys ~n_cores ~cap =
    {
      si_slot = slot;
      si_handle = handle;
      si_out = Array.init n_sys (fun _ -> Array.make n_cores 0);
      si_cap = cap;
      si_v = 0.;
    }

  let tenants d = d.d_tenants
  let ledger d r = d.d_tenants.(r.rq_tenant)
  let queued d =
    Array.fold_left (fun a l -> a + Queue.length l.l_queue) 0 d.d_tenants

  let bump d suffix =
    match d.d_tracer with
    | None -> ()
    | Some tr -> Trace.add tr (d.d_layer ^ suffix) 1

  let sample_depth d l =
    match d.d_tracer with
    | Some tr when d.d_tenant_series ->
        Trace.sample tr
          ~now:(Desim.Engine.now d.d_engine)
          (Printf.sprintf "%s.q.%s.depth" d.d_layer l.l_t.Tenant.t_name)
          (Queue.length l.l_queue)
    | _ -> ()

  let resume r = match r.rq_k with Some k -> k () | None -> ()

  let sys_index d (kind : Mix.kind) =
    let i = d.d_sys.(kind_tag kind) in
    if i < 0 then invalid_arg "Serve.Dispatch: kind has no deployed system";
    i

  (* Bounded-queue admission. *)
  let offer d l ~klass ~k =
    l.l_offered <- l.l_offered + 1;
    if Queue.length l.l_queue >= l.l_t.Tenant.t_queue_cap then begin
      l.l_shed_queue <- l.l_shed_queue + 1;
      bump d ".shed_queue";
      false
    end
    else begin
      let now = Desim.Engine.now d.d_engine in
      Queue.push
        {
          rq_id = d.d_next_id;
          rq_tenant = l.l_index;
          rq_sys = sys_index d klass.Mix.k_kind;
          rq_class = klass;
          rq_arrival = now;
          rq_deadline = now + l.l_t.Tenant.t_deadline_ps;
          rq_attempts = 0;
          rq_k = k;
        }
        l.l_queue;
      d.d_next_id <- d.d_next_id + 1;
      l.l_admitted <- l.l_admitted + 1;
      bump d ".admitted";
      sample_depth d l;
      true
    end

  (* Deadline shedding happens when a request reaches the head of its
     tenant queue: requests behind it are younger (per-tenant FIFO), so an
     un-expired head proves nothing behind it expired. A tenant without a
     site (cluster graceful degradation) sheds its whole queue. *)
  let rec shed d l =
    if not (Queue.is_empty l.l_queue) then begin
      let r = Queue.peek l.l_queue in
      let degraded = l.l_site < 0 in
      if degraded || Desim.Engine.now d.d_engine > r.rq_deadline then begin
        ignore (Queue.pop l.l_queue);
        if degraded then l.l_shed_degraded <- l.l_shed_degraded + 1
        else l.l_shed_deadline <- l.l_shed_deadline + 1;
        bump d (if degraded then ".shed_degraded" else ".shed_deadline");
        sample_depth d l;
        resume r;
        shed d l
      end
    end

  (* Least-outstanding-work core within a system, respecting the per-core
     occupancy cap and avoiding quarantined cores when a healthy one has
     room. If only quarantined cores have room we still dispatch — the
     handle fails fast and the request settles as failed instead of
     wedging its queue. *)
  let choose_core s si =
    let out = s.si_out.(si) in
    let best = ref (-1) and best_q = ref (-1) in
    for c = 0 to Array.length out - 1 do
      let o = out.(c) in
      if o < s.si_cap then
        if H.is_quarantined s.si_handle ~system_id:si ~core_id:c then (
          if !best_q < 0 || o < out.(!best_q) then best_q := c)
        else if !best < 0 || o < out.(!best) then best := c
    done;
    if !best >= 0 then !best else !best_q

  let occupy s r ~core by =
    let out = s.si_out.(r.rq_sys) in
    out.(core) <- out.(core) + by

  let reserve s r ~core = occupy s r ~core 1
  let release s r ~core = occupy s r ~core (-1)

  (* Start-time fair queueing (Goyal et al., SIGCOMM '96): the key of a
     tenant's head request is its virtual START tag — the finish tag of
     the tenant's previous dispatch, or the site's virtual time if the
     tenant went idle. Dispatching advances the tenant's finish tag by
     bytes/weight (heavier tenants accumulate virtual time more slowly,
     so they win more often) and ratchets the site's virtual time to the
     dispatched start tag. Comparing start tags rather than finish tags
     matters: a finish-tag rule under this virtual clock permanently
     starves any flow whose normalized cost (bytes/weight) exceeds a
     backlogged competitor's. *)
  let pick d s ~fifo ~same =
    let best = ref (-1) and best_core = ref (-1) and best_key = ref 0. in
    for i = 0 to Array.length d.d_tenants - 1 do
      let l = d.d_tenants.(i) in
      shed d l;
      if l.l_site = s.si_slot && not (Queue.is_empty l.l_queue) then begin
        let r = Queue.peek l.l_queue in
        if same < 0 || r.rq_sys = same then begin
          let core = choose_core s r.rq_sys in
          (* core < 0: system saturated, head-of-line blocked *)
          if core >= 0 then begin
            let key =
              if fifo then float_of_int r.rq_arrival
              else Float.max l.l_vft s.si_v
            in
            if !best < 0 || key < !best_key then begin
              best := i;
              best_core := core;
              best_key := key
            end
          end
        end
      end
    done;
    if !best < 0 then None
    else begin
      let l = d.d_tenants.(!best) in
      let r = Queue.pop l.l_queue in
      sample_depth d l;
      if not fifo then begin
        let start = Float.max l.l_vft s.si_v in
        let bytes = float_of_int r.rq_class.Mix.k_bytes in
        l.l_vft <- start +. (bytes /. l.l_t.Tenant.t_weight);
        s.si_v <- start
      end;
      Some (r, !best_core)
    end

  (* The request's two buffers and its core slot are freed before [k]
     runs: a resumed closed-loop client mallocs at once, and buffer
     addresses set DRAM timing. *)
  let send ?batch s r ~core k =
    let h = s.si_handle and bytes = r.rq_class.Mix.k_bytes in
    let a = H.malloc h bytes and b = H.malloc h bytes in
    let src = Int64.of_int a.H.rp_addr and dst = Int64.of_int b.H.rp_addr in
    let args, cmd, expect =
      match r.rq_class.Mix.k_kind with
      | Mix.Memcpy ->
          let n = Int64.of_int bytes in
          ( [ ("src", src); ("dst", dst); ("bytes", n) ],
            Kernels.Memcpy.command,
            n )
      | Mix.Vecadd ->
          let n = Int64.of_int (bytes / 4) in
          ( [
              ("addend", 1L); ("vec_addr", src); ("out_addr", dst); ("n_eles", n);
            ],
            Kernels.Vecadd.command,
            n )
      | Mix.Sort ->
          (* the sort kernel's in2 channel is unused (in2_bytes = 0); the
             freshly allocated input buffer is zeroed device memory, which
             sorts deterministically *)
          ( [ ("in1", src); ("in2", src); ("out", dst) ],
            Kernels.Machsuite.Launch.command,
            1L )
    in
    let rh =
      H.send ?batch ~queued_at:r.rq_arrival h
        ~system:(Mix.kind_system r.rq_class.Mix.k_kind)
        ~core ~cmd ~args
    in
    H.on_settled rh (fun res ->
        H.mfree h a;
        H.mfree h b;
        release s r ~core;
        k rh (Result.map (Int64.equal expect) res))

  let us ps = float_of_int ps /. 1e6

  let complete d r rh ~submitted ~finished ~ok =
    let l = ledger d r in
    l.l_completed <- l.l_completed + 1;
    if not ok then l.l_bad <- l.l_bad + 1;
    l.l_bytes <- l.l_bytes + r.rq_class.Mix.k_bytes;
    let seen =
      match H.response_seen_at rh with Some s -> s | None -> finished
    in
    let total = finished - r.rq_arrival in
    S.observe l.l_q_wait (us (submitted - r.rq_arrival));
    S.observe l.l_service (us (seen - submitted));
    S.observe l.l_collect (us (finished - seen));
    S.observe l.l_total (us total);
    let late = total > l.l_t.Tenant.t_slo_ps in
    if late then l.l_slo_viol <- l.l_slo_viol + 1;
    bump d ".completed";
    (match d.d_tracer with
    | Some tr when d.d_tenant_series ->
        Trace.observe tr
          (Printf.sprintf "%s.%s.total_us" d.d_layer l.l_t.Tenant.t_name)
          (us total)
    | _ -> ());
    resume r;
    late

  let fail d r =
    let l = ledger d r in
    l.l_failed <- l.l_failed + 1;
    bump d ".failed";
    resume r

  let start_clients d ~seed ~salt ~t0 ~horizon admit =
    spawn_clients ~engine:d.d_engine ~seed ~salt ~horizon ~t0
      ~tenants:(Array.to_list (Array.map (fun l -> l.l_t) d.d_tenants))
      ~offer:(fun ~tenant ~klass ~k -> admit d.d_tenants.(tenant) ~klass ~k)
      ()

  let tenant_report ~duration_ps ~wall_ps l =
    {
      tr_name = l.l_t.Tenant.t_name;
      tr_weight = l.l_t.Tenant.t_weight;
      tr_offered = l.l_offered;
      tr_admitted = l.l_admitted;
      tr_shed_queue = l.l_shed_queue;
      tr_shed_deadline = l.l_shed_deadline;
      tr_shed_degraded = l.l_shed_degraded;
      tr_completed = l.l_completed;
      tr_failed = l.l_failed;
      tr_bad_responses = l.l_bad;
      tr_slo_violations = l.l_slo_viol;
      tr_bytes_served = l.l_bytes;
      tr_offered_rps =
        float_of_int l.l_offered /. (float_of_int duration_ps /. 1e12);
      tr_achieved_rps =
        (if wall_ps = 0 then 0.
         else float_of_int l.l_completed /. (float_of_int wall_ps /. 1e12));
      tr_queue = phase_of l.l_q_wait;
      tr_service = phase_of l.l_service;
      tr_collect = phase_of l.l_collect;
      tr_total = phase_of l.l_total;
    }

  let tenant_violations t =
    let out = ref [] in
    let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
    if t.tr_offered <> t.tr_admitted + t.tr_shed_queue then
      add "%s: offered %d <> admitted %d + shed-at-admission %d" t.tr_name
        t.tr_offered t.tr_admitted t.tr_shed_queue;
    if
      t.tr_admitted
      <> t.tr_completed + t.tr_shed_deadline + t.tr_shed_degraded + t.tr_failed
    then
      add
        "%s: admitted %d <> completed %d + shed-deadline %d + shed-degraded \
         %d + failed %d"
        t.tr_name t.tr_admitted t.tr_completed t.tr_shed_deadline
        t.tr_shed_degraded t.tr_failed;
    if t.tr_bad_responses > 0 then
      add "%s: %d response payloads mismatched their requests" t.tr_name
        t.tr_bad_responses;
    List.rev !out

  let digest_tenant b ~bad t =
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    pf " | %s off=%d adm=%d shq=%d shd=%d shg=%d ok=%d fail=%d" t.tr_name
      t.tr_offered t.tr_admitted t.tr_shed_queue t.tr_shed_deadline
      t.tr_shed_degraded t.tr_completed t.tr_failed;
    if bad then pf " bad=%d" t.tr_bad_responses;
    pf " slo=%d by=%d" t.tr_slo_violations t.tr_bytes_served;
    match t.tr_total with
    | Some p -> pf " p99=%.2f" p.ph_p99_us
    | None -> pf " p99=-"

  let render_tenants b ~degraded tenants =
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    pf "\n%-10s %4s %8s %8s %6s %6s" "tenant" "wt" "offered" "admitted" "shedQ"
      "shedD";
    if degraded then pf " %6s" "shedG";
    pf " %8s %6s %6s %10s %10s\n" "complete" "fail" "slo!" "offered/s"
      "achieved/s";
    List.iter
      (fun t ->
        pf "%-10s %4.1f %8d %8d %6d %6d" t.tr_name t.tr_weight t.tr_offered
          t.tr_admitted t.tr_shed_queue t.tr_shed_deadline;
        if degraded then pf " %6d" t.tr_shed_degraded;
        pf " %8d %6d %6d %10.0f %10.0f\n" t.tr_completed t.tr_failed
          t.tr_slo_violations t.tr_offered_rps t.tr_achieved_rps)
      tenants;
    let sq, sd, sg =
      List.fold_left
        (fun (q, d, g) t ->
          (q + t.tr_shed_queue, d + t.tr_shed_deadline, g + t.tr_shed_degraded))
        (0, 0, 0) tenants
    in
    let name = shed_reason_name in
    pf "shed breakdown: %s=%d %s=%d %s=%d\n" (name Shed_queue_full) sq
      (name Shed_deadline) sd (name Shed_degradation) sg;
    pf "\nlatency (us)%-16s %8s %8s %8s %8s %8s\n" "" "mean" "p50" "p95" "p99"
      "p99.9";
    List.iter
      (fun t ->
        let row label = function
          | None ->
              pf "  %-10s %-15s %8s %8s %8s %8s %8s\n" t.tr_name label "-" "-"
                "-" "-" "-"
          | Some p ->
              pf "  %-10s %-15s %8.1f %8.1f %8.1f %8.1f %8.1f\n" t.tr_name
                label p.ph_mean_us p.ph_p50_us p.ph_p95_us p.ph_p99_us
                p.ph_p999_us
        in
        row "queue-wait" t.tr_queue;
        row "service" t.tr_service;
        row "collect" t.tr_collect;
        row "total" t.tr_total)
      tenants
end

module D = Dispatch

(* ------------------------------------------------------------------ *)
(* Single-SoC dispatcher                                              *)
(* ------------------------------------------------------------------ *)

type sstate = {
  st_cfg : config;
  st_engine : Desim.Engine.t;
  st_d : D.t;
  st_site : D.site;  (* the one SoC: site 0 *)
  st_kinds : Mix.kind list;  (* deployed systems, in system-index order *)
  st_disp : int array array;  (* [system][core] commands dispatched *)
  mutable st_armed : bool;
  mutable st_batches : int;
  mutable st_batched : int;
}

(* Pick (and reserve a core for) the next dispatchable request.
   [same] (a system index, or -1) constrains the choice to one deployed
   system — the batching compatibility rule: one server occupancy
   carries commands for one system only. *)
let pick_next st ~same =
  match D.pick st.st_d st.st_site ~fifo:(st.st_cfg.c_policy = Fifo) ~same with
  | None -> None
  | Some (r, core) as p ->
      (* reserve the slot so the rest of the batch sees the occupancy *)
      D.reserve st.st_site r ~core;
      p

let rec arm_dispatch st =
  if not st.st_armed then begin
    st.st_armed <- true;
    Desim.Engine.schedule st.st_engine ~delay:0 (fun () ->
        st.st_armed <- false;
        dispatch_all st)
  end

and dispatch_all st =
  match pick_next st ~same:(-1) with
  | None -> ()
  | Some ((first, _) as p) ->
      let picks = ref [ p ] and n = ref 1 in
      let continue_ = ref true in
      while !continue_ && !n < st.st_cfg.c_batch_max do
        match pick_next st ~same:first.D.rq_sys with
        | Some p ->
            picks := p :: !picks;
            incr n
        | None -> continue_ := false
      done;
      let picks = List.rev !picks in
      st.st_batches <- st.st_batches + 1;
      st.st_batched <- st.st_batched + !n;
      let batch = H.begin_batch st.st_site.D.si_handle ~n:!n in
      List.iter (submit st ~batch) picks;
      dispatch_all st

and submit st ~batch (r, core) =
  let now = Desim.Engine.now st.st_engine in
  let disp = st.st_disp.(r.D.rq_sys) in
  disp.(core) <- disp.(core) + 1;
  D.send ~batch st.st_site r ~core (fun rh res ->
      (match res with
      | Ok ok ->
          ignore
            (D.complete st.st_d r rh ~submitted:now
               ~finished:(Desim.Engine.now st.st_engine)
               ~ok)
      | Error _ -> D.fail st.st_d r);
      arm_dispatch st)

let offer st l ~klass ~k =
  let admitted = D.offer st.st_d l ~klass ~k in
  if admitted then arm_dispatch st;
  admitted

let kinds_used tenants =
  let used k =
    List.exists
      (fun t -> List.exists (fun c -> c.Mix.k_kind = k) t.Tenant.t_mix)
      tenants
  in
  List.filter used [ Mix.Memcpy; Mix.Vecadd; Mix.Sort ]

let system_of_kind (k : Mix.kind) ~n_cores =
  match k with
  | Mix.Memcpy -> Kernels.Memcpy.system ~n_cores
  | Mix.Vecadd -> Kernels.Vecadd.system ~n_cores
  | Mix.Sort ->
      Kernels.Machsuite_extra.system Kernels.Machsuite_extra.Merge_sort
        ~n_cores

let behavior_of_system name =
  if name = "Memcpy" then Kernels.Memcpy.behavior
  else if name = "VecAdd" then Kernels.Vecadd.behavior
  else Kernels.Machsuite_extra.behavior Kernels.Machsuite_extra.Merge_sort

(* Assemble a report from the live campaign state. Pure observation: it
   reads counters, summarizes the latency series and checks allocator
   invariants, but never touches a queue, an engine, or an RNG stream —
   the contract that makes {!Session.snapshot} safe mid-run. *)
let mk_report st ~inj ~baseline_free ~duration_ps ~t0 =
  let cfg = st.st_cfg in
  let wall_ps = Desim.Engine.now st.st_engine - t0 in
  let handle = st.st_site.D.si_handle in
  let alloc = H.allocator handle in
  {
    r_seed = cfg.c_seed;
    r_policy = cfg.c_policy;
    r_duration_ps = duration_ps;
    r_wall_ps = wall_ps;
    r_tenants =
      Array.to_list
        (Array.map (D.tenant_report ~duration_ps ~wall_ps) (D.tenants st.st_d));
    r_batches = st.st_batches;
    r_batched_commands = st.st_batched;
    r_server_busy_ps = H.server_busy_ps handle;
    r_dispatched_per_core =
      List.mapi
        (fun si k -> (Mix.kind_system k, Array.copy st.st_disp.(si)))
        st.st_kinds;
    r_stuck = D.queued st.st_d;
    r_alloc_ok = Runtime.Alloc.check_invariants alloc;
    r_leaked_blocks = Runtime.Alloc.n_blocks alloc;
    r_free_delta = Runtime.Alloc.free_bytes alloc - baseline_free;
    r_injector = inj;
  }

(* ------------------------------------------------------------------ *)
(* Sessions: the SoC outlives a single campaign                       *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type t = {
    se_cfg : config;
    se_engine : Desim.Engine.t;
    se_handle : H.t;
    se_tracer : Trace.t option;
    se_inj : Fault.Injector.t option;
    se_baseline_free : int;
    se_kinds : Mix.kind list;  (* systems deployed at create time *)
    mutable se_phases : int;  (* phases started (the next phase's salt) *)
    mutable se_cur : (sstate * int * int) option;  (* state, t0, duration *)
    mutable se_last : report option;
  }

  let create ?tracer ?plan ?(platform = Platform.Device.aws_f1) cfg () =
    let kinds = kinds_used cfg.c_tenants in
    let systems =
      List.map (fun k -> system_of_kind k ~n_cores:cfg.c_n_cores) kinds
    in
    let inj = Option.map Fault.Injector.create plan in
    let config = B.Config.make ~name:"serve" systems in
    let soc =
      Soc.create ?tracer ?fault:inj
        (B.Elaborate.elaborate config platform)
        ~behaviors:behavior_of_system
    in
    let handle = H.create soc in
    let engine = Soc.engine soc in
    let baseline_free = Runtime.Alloc.free_bytes (H.allocator handle) in
    {
      se_cfg = cfg;
      se_engine = engine;
      se_handle = handle;
      se_tracer = tracer;
      se_inj = inj;
      se_baseline_free = baseline_free;
      se_kinds = kinds;
      se_phases = 0;
      se_cur = None;
      se_last = None;
    }

  let handle s = s.se_handle
  let now s = Desim.Engine.now s.se_engine
  let injector s = s.se_inj

  let start_phase ?tenants s ~duration_ps =
    (match s.se_cur with
    | Some _ ->
        invalid_arg "Serve.Session.start_phase: a phase is already running"
    | None -> ());
    if duration_ps < 1 then
      invalid_arg "Serve.Session.start_phase: duration must be >= 1";
    let tenants =
      match tenants with
      | None -> s.se_cfg.c_tenants
      | Some [] -> invalid_arg "Serve.Session.start_phase: no tenants"
      | Some l ->
          List.iter
            (fun t ->
              List.iter
                (fun c ->
                  if not (List.mem c.Mix.k_kind s.se_kinds) then
                    invalid_arg
                      "Serve.Session.start_phase: tenant mix uses a kind \
                       with no deployed system (declare it in the session \
                       config's tenants)")
                t.Tenant.t_mix)
            l;
          l
    in
    let cfg = s.se_cfg in
    let n_sys = List.length s.se_kinds in
    let st =
      {
        st_cfg = cfg;
        st_engine = s.se_engine;
        st_d =
          D.create ~engine:s.se_engine ?tracer:s.se_tracer ~layer:"serve"
            ~tenant_series:true ~kinds:s.se_kinds ~site:0 tenants;
        st_site =
          D.site ~slot:0 ~handle:s.se_handle ~n_sys ~n_cores:cfg.c_n_cores
            ~cap:cfg.c_core_cap;
        st_kinds = s.se_kinds;
        st_disp = Array.init n_sys (fun _ -> Array.make cfg.c_n_cores 0);
        st_armed = false;
        st_batches = 0;
        st_batched = 0;
      }
    in
    let t0 = Desim.Engine.now s.se_engine in
    s.se_cur <- Some (st, t0, duration_ps);
    D.start_clients st.st_d ~seed:cfg.c_seed ~salt:s.se_phases ~t0
      ~horizon:(t0 + duration_ps) (offer st);
    s.se_phases <- s.se_phases + 1

  let advance s ~until = Desim.Engine.run ~until s.se_engine

  let sleep s ~delta_ps =
    if delta_ps < 0 then invalid_arg "Serve.Session.sleep: negative delta";
    advance s ~until:(now s + delta_ps)

  (* Mid-run, non-finalizing summary of the work completed so far in the
     current phase (or the last finished phase when idle). Never
     perturbs the campaign: no queue is popped, no event fires, no RNG
     stream advances — double-snapshotting and then finishing the phase
     yields the same final report as finishing it without snapshots. *)
  let snapshot s =
    match s.se_cur with
    | Some (st, t0, duration_ps) ->
        mk_report st ~inj:s.se_inj ~baseline_free:s.se_baseline_free
          ~duration_ps ~t0
    | None -> (
        match s.se_last with
        | Some r -> r
        | None -> invalid_arg "Serve.Session.snapshot: no phase has run")

  let finish_phase s =
    match s.se_cur with
    | None -> invalid_arg "Serve.Session.finish_phase: no phase running"
    | Some (st, t0, duration_ps) ->
        Desim.Engine.run s.se_engine;
        let r =
          mk_report st ~inj:s.se_inj ~baseline_free:s.se_baseline_free
            ~duration_ps ~t0
        in
        s.se_cur <- None;
        s.se_last <- Some r;
        r

  let run_phase ?tenants s ~duration_ps =
    start_phase ?tenants s ~duration_ps;
    finish_phase s
end

let run ?tracer ?plan ?platform cfg () =
  let s = Session.create ?tracer ?plan ?platform cfg () in
  Session.run_phase s ~duration_ps:cfg.c_duration_ps

let violations r =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  if r.r_stuck > 0 then add "%d requests still queued after drain" r.r_stuck;
  if not r.r_alloc_ok then add "allocator invariants violated";
  if r.r_leaked_blocks > 0 then
    add "%d device allocations leaked" r.r_leaked_blocks;
  if r.r_free_delta <> 0 then
    add "free_bytes drifted %+d from the pre-campaign baseline" r.r_free_delta;
  (match r.r_injector with
  | Some inj when Fault.Injector.pending_lost inj > 0 ->
      add "%d lost-message faults never resolved"
        (Fault.Injector.pending_lost inj)
  | _ -> ());
  List.concat_map D.tenant_violations r.r_tenants @ List.rev !out

let conserved r = violations r = []

let digest r =
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "serve seed=%d policy=%s wall=%d batches=%d cmds=%d busy=%d" r.r_seed
    (policy_name r.r_policy) r.r_wall_ps r.r_batches r.r_batched_commands
    r.r_server_busy_ps;
  List.iter (D.digest_tenant b ~bad:true) r.r_tenants;
  pf " | stuck=%d alloc=%s leak=%d drift=%d" r.r_stuck
    (if r.r_alloc_ok then "ok" else "BAD")
    r.r_leaked_blocks r.r_free_delta;
  (match r.r_injector with
  | Some inj -> pf " | %s" (Fault.Injector.counters_line inj)
  | None -> ());
  Buffer.contents b

let render r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "serve campaign: seed=%d policy=%s duration=%.0f us wall=%.0f us\n"
    r.r_seed (policy_name r.r_policy)
    (float_of_int r.r_duration_ps /. 1e6)
    (float_of_int r.r_wall_ps /. 1e6);
  pf "  server: %d batches carrying %d commands (%.2f cmds/occupancy), busy %.0f us\n"
    r.r_batches r.r_batched_commands
    (if r.r_batches = 0 then 0.
     else float_of_int r.r_batched_commands /. float_of_int r.r_batches)
    (float_of_int r.r_server_busy_ps /. 1e6);
  List.iter
    (fun (name, disp) ->
      pf "  %-8s dispatched per core:" name;
      Array.iter (fun d -> pf " %d" d) disp;
      pf "\n")
    r.r_dispatched_per_core;
  D.render_tenants b ~degraded:false r.r_tenants;
  (match r.r_injector with
  | Some inj -> pf "\nfaults: %s\n" (Fault.Injector.counters_line inj)
  | None -> ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Saturation sweep                                                   *)
(* ------------------------------------------------------------------ *)

type sat_point = {
  sat_offered_rps : float;
  sat_achieved_rps : float;
  sat_completed : int;
  sat_shed : int;
  sat_p50_us : float;
  sat_p99_us : float;
}

let saturation ?(seed = 42) ?(bytes = 16 * 1024) ?(n_cores = 4) ?(clients = 8)
    ?(duration_ps = 1_000_000_000) ?(batch_max = 8)
    ?(platform = Platform.Device.aws_f1) ~rates_rps () =
  List.map
    (fun rate ->
      let tenant =
        Tenant.make ~name:"load" ~clients ~queue_cap:128
          ~mix:[ Mix.memcpy ~bytes () ]
          ~load:(Tenant.open_loop ~rate_rps:(rate /. float_of_int clients) ())
          ()
      in
      let cfg =
        config ~seed ~duration_ps ~batch_max ~n_cores ~tenants:[ tenant ] ()
      in
      let r = run ~platform cfg () in
      let t = List.hd r.r_tenants in
      let q f = match t.tr_total with Some p -> f p | None -> 0. in
      {
        sat_offered_rps = t.tr_offered_rps;
        sat_achieved_rps = t.tr_achieved_rps;
        sat_completed = t.tr_completed;
        sat_shed = t.tr_shed_queue + t.tr_shed_deadline;
        sat_p50_us = q (fun p -> p.ph_p50_us);
        sat_p99_us = q (fun p -> p.ph_p99_us);
      })
    rates_rps

let render_saturation points =
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "%12s %12s %9s %6s %9s %9s\n" "offered/s" "achieved/s" "complete" "shed"
    "p50 us" "p99 us";
  List.iter
    (fun p ->
      pf "%12.0f %12.0f %9d %6d %9.1f %9.1f\n" p.sat_offered_rps
        p.sat_achieved_rps p.sat_completed p.sat_shed p.sat_p50_us p.sat_p99_us)
    points;
  Buffer.contents b
