module Soc = Beethoven.Soc
module Rocc = Beethoven.Rocc
module Cmd_spec = Beethoven.Cmd_spec

type remote_ptr = { rp_addr : int; rp_bytes : int; rp_gen : int }

exception Stale_pointer of { addr : int; bytes : int }

let () =
  Printexc.register_printer (function
    | Stale_pointer { addr; bytes } ->
        Some
          (Printf.sprintf
             "Handle.Stale_pointer: remote_ptr 0x%x (%d B) no longer backs \
              a live allocation"
             addr bytes)
    | _ -> None)

type response_handle = {
  mutable result : int64 option;
  mutable failed : string option;
      (* set instead of [result] when recovery is exhausted *)
  mutable raw_at : int option;
      (* when the raw response reached the MMIO frontend, before the
         collect server operation — the service/collect phase boundary *)
  mutable waiters : (int64 -> unit) list;
  mutable settle_waiters : ((int64, string) result -> unit) list;
      (* fired exactly once, on success OR failure — the form a
         multi-outstanding client needs for conservation accounting *)
}

let fresh_handle () =
  { result = None; failed = None; raw_at = None; waiters = []; settle_waiters = [] }

type t = {
  soc : Soc.t;
  engine : Desim.Engine.t;
  alloc : Alloc.t; (* discrete platforms: device address space *)
  pagemap : Pagemap.t option; (* embedded platforms: the host OS's pages *)
  huge_mappings : (int, Pagemap.mapping) Hashtbl.t; (* phys base -> mapping *)
  host_buffers : (int, Bytes.t) Hashtbl.t; (* device addr -> host staging *)
  poison_freed : bool;
  (* device base -> generation of the live allocation there; a remote_ptr
     whose generation does not match is stale *)
  gens : (int, int) Hashtbl.t;
  mutable next_gen : int;
  (* (system_id, core_id) the watchdog has written off *)
  quarantined : (int * int, unit) Hashtbl.t;
  (* per-core prompt-abort hooks: every in-flight watchdogged attempt
     registers one so quarantining a core immediately reroutes-or-fails
     the commands pending on it instead of letting each wait out its own
     (possibly doubled) deadline — the fast-drain path a cluster layer
     needs. Keyed by a monotonic id so firing order is deterministic. *)
  kicks : (int * int, (int, unit -> unit) Hashtbl.t) Hashtbl.t;
  mutable next_kick : int;
  mutable server_free_at : int;
  mutable server_busy_ps : int;
  mutable command_timeouts : int;
  mutable command_retries : int;
}

(* Runtime-server service time per MMIO operation: a syscall + a handful
   of MMIO accesses. *)
let server_op_ps = 1_500_000

let create ?(poison_freed = false) soc =
  let shared =
    (Soc.platform soc).Platform.Device.host.Platform.Device
    .shared_address_space
  in
  {
    soc;
    engine = Soc.engine soc;
    alloc = Alloc.create ~size:(Soc.mem_size soc) ();
    pagemap =
      (if shared then
         Some (Pagemap.create ~phys_bytes:(Soc.mem_size soc) ())
       else None);
    huge_mappings = Hashtbl.create 16;
    host_buffers = Hashtbl.create 16;
    poison_freed;
    gens = Hashtbl.create 16;
    next_gen = 0;
    quarantined = Hashtbl.create 4;
    kicks = Hashtbl.create 4;
    next_kick = 0;
    server_free_at = 0;
    server_busy_ps = 0;
    command_timeouts = 0;
    command_retries = 0;
  }

let soc t = t.soc
let engine t = t.engine
let tracer t = Soc.tracer t.soc

(* One runtime-server operation: waits for the server lock, holds it for
   the service time, then continues. Start and finish are known at issue
   time, so the trace span is recorded synchronously. Returns the finish
   time so batched submissions can ride a single occupancy. *)
let server_op ?span ?(op = "op") t k =
  let now = Desim.Engine.now t.engine in
  let start = max now t.server_free_at in
  let finish = start + server_op_ps in
  t.server_free_at <- finish;
  t.server_busy_ps <- t.server_busy_ps + server_op_ps;
  (match tracer t with
  | None -> ()
  | Some tr ->
      let sp =
        Trace.begin_span tr ~now:start ?parent:span ~track:"runtime server"
          ~cat:"server" ~name:op ()
      in
      if start > now then
        Trace.add_arg tr sp "lock_wait_ps" (Trace.Int (start - now));
      Trace.end_span tr ~now:finish sp;
      Trace.add tr "server.busy_ps" server_op_ps);
  Desim.Engine.schedule_at t.engine ~time:finish k;
  finish

type batch = { b_ready : int }

(* One server occupancy covers the MMIO writes of a whole coalesced
   submission: the syscall + lock acquisition that [server_op_ps] models
   is paid once for up to N compatible commands instead of once per beat
   — the amortization a batching dispatcher buys (the Fig. 6 contention
   knob). Beats ride the occupancy and enter the fabric when it ends. *)
let begin_batch t ~n =
  let finish =
    server_op ~op:(Printf.sprintf "submit x%d" n) t (fun () -> ())
  in
  (match tracer t with
  | None -> ()
  | Some tr -> Trace.add tr "server.batched_cmds" n);
  { b_ready = finish }

let malloc t n =
  match t.pagemap with
  | Some pm ->
      (* embedded: hugepage-backed so the physically-addressed fabric sees
         one contiguous region (§II-C2); rp_addr is the physical base *)
      let m = Pagemap.mmap pm ~hugepages:true n in
      assert (Pagemap.physically_contiguous pm m);
      let addr = Pagemap.translate pm m.Pagemap.vaddr in
      Hashtbl.replace t.huge_mappings addr m;
      Hashtbl.replace t.host_buffers addr (Bytes.make n '\000');
      t.next_gen <- t.next_gen + 1;
      Hashtbl.replace t.gens addr t.next_gen;
      { rp_addr = addr; rp_bytes = n; rp_gen = t.next_gen }
  | None -> (
      match Alloc.alloc t.alloc n with
      | None -> failwith "fpga_handle: device memory exhausted"
      | Some addr ->
          Hashtbl.replace t.host_buffers addr (Bytes.make n '\000');
          t.next_gen <- t.next_gen + 1;
          Hashtbl.replace t.gens addr t.next_gen;
          { rp_addr = addr; rp_bytes = n; rp_gen = t.next_gen })

let check_live t ptr =
  match Hashtbl.find_opt t.gens ptr.rp_addr with
  | Some g when g = ptr.rp_gen -> ()
  | _ -> raise (Stale_pointer { addr = ptr.rp_addr; bytes = ptr.rp_bytes })

let mfree t ptr =
  (* a pointer into a base that was reallocated since is stale, not a
     double-free — distinguish before the allocator sees it *)
  (match Hashtbl.find_opt t.gens ptr.rp_addr with
  | Some g when g <> ptr.rp_gen ->
      raise (Stale_pointer { addr = ptr.rp_addr; bytes = ptr.rp_bytes })
  | _ -> ());
  (match (t.pagemap, Hashtbl.find_opt t.huge_mappings ptr.rp_addr) with
  | Some pm, Some m ->
      Pagemap.munmap pm m;
      Hashtbl.remove t.huge_mappings ptr.rp_addr
  | Some _, None ->
      raise (Alloc.Invalid_free { addr = ptr.rp_addr; reason = Alloc.Double_free })
  | None, _ -> Alloc.free t.alloc ptr.rp_addr);
  Hashtbl.remove t.gens ptr.rp_addr;
  (if t.poison_freed then
     match Hashtbl.find_opt t.host_buffers ptr.rp_addr with
     | Some b -> Bytes.fill b 0 (Bytes.length b) '\xde'
     | None -> ());
  Hashtbl.remove t.host_buffers ptr.rp_addr

let host_bytes t ptr =
  check_live t ptr;
  match Hashtbl.find_opt t.host_buffers ptr.rp_addr with
  | Some b -> b
  | None -> raise (Stale_pointer { addr = ptr.rp_addr; bytes = ptr.rp_bytes })

let platform t = Soc.platform t.soc

let dma_ps t bytes =
  let host = (platform t).Platform.Device.host in
  if host.Platform.Device.shared_address_space then
    (* cache maintenance over the region: ~200 ps per line *)
    bytes / 64 * 200
  else
    (* GB/s = bytes/ns, so time_ps = bytes / GBs * 1000 *)
    host.Platform.Device.dma_setup_ps
    + int_of_float
        (float_of_int bytes /. host.Platform.Device.dma_bandwidth_gbs *. 1000.)

(* One DMA transfer, with transient-failure injection and bounded
   retry/backoff. Each injected failure is resolved exactly once:
   [Recovered] when a later attempt completes, [Unrecovered] when the
   budget runs out (the transfer is then abandoned — the campaign's
   verification pass surfaces the resulting corruption). *)
let dma_op t ~bytes ~site ~work ~on_done =
  let inj = Soc.fault_injector t.soc in
  let policy = Fault.Policy.default in
  (* each DMA transfer is its own top-level transaction in the trace *)
  let span, on_done =
    match tracer t with
    | None -> (None, on_done)
    | Some tr ->
        let now = Desim.Engine.now t.engine in
        let txn = Trace.fresh_txn tr in
        let sp =
          Trace.begin_span tr ~now ~txn ~track:"runtime" ~cat:"dma" ~name:site
            ()
        in
        Trace.add_arg tr sp "bytes" (Trace.Int bytes);
        ( Some sp,
          fun () ->
            Trace.end_span tr ~now:(Desim.Engine.now t.engine) sp;
            Trace.add tr "dma.bytes" bytes;
            on_done () )
  in
  let rec go attempt =
    Desim.Engine.schedule t.engine ~delay:(dma_ps t bytes) (fun () ->
        let now = Desim.Engine.now t.engine in
        let failed =
          match inj with
          | Some i when Fault.Injector.decide i Fault.Class.Dma_fail ->
              Fault.Injector.log i ~now ~cls:Fault.Class.Dma_fail
                ~kind:Fault.Log.Injected ~site;
              (match (tracer t, span) with
              | Some tr, Some sp ->
                  Trace.add_arg tr sp
                    (Printf.sprintf "fault_id[%d]" attempt)
                    (Trace.Int (Fault.Injector.last_id i))
              | _ -> ());
              true
          | _ -> false
        in
        if not failed then begin
          (match inj with
          | Some i when attempt > 0 ->
              for _ = 1 to attempt do
                Fault.Injector.log i ~now ~cls:Fault.Class.Dma_fail
                  ~kind:Fault.Log.Recovered ~site
              done
          | _ -> ());
          work ();
          on_done ()
        end
        else if attempt < policy.Fault.Policy.dma_max_retries then
          Desim.Engine.schedule t.engine
            ~delay:(policy.Fault.Policy.dma_backoff_ps * (1 lsl attempt))
            (fun () -> go (attempt + 1))
        else begin
          (match inj with
          | Some i ->
              for _ = 1 to attempt + 1 do
                Fault.Injector.log i ~now ~cls:Fault.Class.Dma_fail
                  ~kind:Fault.Log.Unrecovered ~site
              done
          | None -> ());
          (match (tracer t, span) with
          | Some tr, Some sp ->
              Trace.add_arg tr sp "abandoned" (Trace.Int 1)
          | _ -> ());
          on_done ()
        end)
  in
  go 0

let copy_to_fpga t ptr ~on_done =
  let src = host_bytes t ptr in
  dma_op t ~bytes:ptr.rp_bytes
    ~site:(Printf.sprintf "dma to fpga @0x%x (%d B)" ptr.rp_addr ptr.rp_bytes)
    ~work:(fun () -> Soc.blit_in t.soc ~src ~dst_addr:ptr.rp_addr)
    ~on_done

let copy_from_fpga t ptr ~on_done =
  check_live t ptr;
  dma_op t ~bytes:ptr.rp_bytes
    ~site:
      (Printf.sprintf "dma from fpga @0x%x (%d B)" ptr.rp_addr ptr.rp_bytes)
    ~work:(fun () ->
      Soc.blit_out t.soc ~src_addr:ptr.rp_addr ~dst:(host_bytes t ptr))
    ~on_done

let blocking_dma copy t ptrs =
  let pending = ref (List.length ptrs) in
  List.iter (fun p -> copy t p ~on_done:(fun () -> decr pending)) ptrs;
  Desim.Engine.run t.engine;
  if !pending <> 0 then failwith "Runtime.Handle: DMA incomplete"

let copy_all_to_fpga = blocking_dma copy_to_fpga
let copy_all_from_fpga = blocking_dma copy_from_fpga

(* Idempotent: a command retried by the watchdog can respond more than
   once (at-least-once delivery); only the first response resolves, and a
   handle that already failed stays failed (the settle accounting below
   fires exactly once per handle, success or failure). *)
let resolve handle v =
  if handle.result = None && handle.failed = None then begin
    handle.result <- Some v;
    let ws = handle.waiters in
    handle.waiters <- [];
    List.iter (fun w -> w v) ws;
    let sws = handle.settle_waiters in
    handle.settle_waiters <- [];
    List.iter (fun w -> w (Ok v)) sws
  end

let fail handle msg =
  if handle.result = None && handle.failed = None then begin
    handle.failed <- Some msg;
    let sws = handle.settle_waiters in
    handle.settle_waiters <- [];
    List.iter (fun w -> w (Error msg)) sws
  end

let send_raw ?span ?batch t cmd =
  let handle = fresh_handle () in
  let deliver () =
    Soc.send_command ?span t.soc cmd ~on_response:(fun resp ->
        if handle.raw_at = None then
          handle.raw_at <- Some (Desim.Engine.now t.engine);
        (* the server polls the MMIO response queue; collection is
           another serialized server operation *)
        ignore
          (server_op ?span ~op:"collect" t (fun () ->
               resolve handle resp.Rocc.resp_data)))
  in
  (match batch with
  | None -> ignore (server_op ?span ~op:"submit" t deliver)
  | Some b ->
      (* this beat's MMIO write was covered by the batch occupancy *)
      Desim.Engine.schedule_at t.engine
        ~time:(max b.b_ready (Desim.Engine.now t.engine))
        deliver);
  handle

let system_index t name =
  let systems =
    (Soc.design t.soc).Beethoven.Elaborate.config.Beethoven.Config.systems
  in
  let rec go i = function
    | [] -> invalid_arg ("fpga_handle: unknown system " ^ name)
    | s :: rest ->
        if s.Beethoven.Config.sys_name = name then i else go (i + 1) rest
  in
  go 0 systems

let is_quarantined t ~system_id ~core_id =
  Hashtbl.mem t.quarantined (system_id, core_id)

(* Register a prompt-abort hook for an attempt in flight on a core.
   Returns the deregistration thunk the attempt calls once it settles or
   is superseded. *)
let register_kick t ~system_id ~core_id f =
  let key = (system_id, core_id) in
  let tbl =
    match Hashtbl.find_opt t.kicks key with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace t.kicks key tbl;
        tbl
  in
  let id = t.next_kick in
  t.next_kick <- id + 1;
  Hashtbl.replace tbl id f;
  fun () -> Hashtbl.remove tbl id

(* Fire (and clear) the abort hooks pending on a core, in registration
   order — called at quarantine so in-flight commands reroute or fail
   now instead of waiting out their deadlines. *)
let fire_kicks t ~system_id ~core_id =
  match Hashtbl.find_opt t.kicks (system_id, core_id) with
  | None -> ()
  | Some tbl ->
      let pending = Hashtbl.fold (fun id f acc -> (id, f) :: acc) tbl [] in
      Hashtbl.remove t.kicks (system_id, core_id);
      List.iter
        (fun (_, f) -> f ())
        (List.sort (fun (a, _) (b, _) -> compare a b) pending)

(* Externally imposed quarantine (a cluster health monitor writing off a
   device's cores, a test forcing the state): mark the core failed, log
   it on the injector's ledger when one is attached, and promptly settle
   every command pending on the core (reroute to a surviving core of the
   system, or Failed when none is left). Idempotent. *)
let quarantine_core ?(cls = Fault.Class.Core_hang) t ~system_id ~core_id
    ~reason =
  if not (Hashtbl.mem t.quarantined (system_id, core_id)) then begin
    Hashtbl.replace t.quarantined (system_id, core_id) ();
    (match Soc.fault_injector t.soc with
    | Some inj ->
        Fault.Injector.log inj
          ~now:(Desim.Engine.now t.engine)
          ~cls ~kind:Fault.Log.Quarantined
          ~site:
            (Printf.sprintf "sys=%d core=%d forced: %s" system_id core_id
               reason)
    | None -> ());
    fire_kicks t ~system_id ~core_id
  end

let send ?batch ?queued_at t ~system ~core ~cmd ~args =
  let pairs = Cmd_spec.pack cmd args in
  let n = List.length pairs in
  let sys_id = system_index t system in
  (* Root span for the whole host-visible command: a fresh transaction id
     that every downstream span (server ops, NoC hops, core execution,
     AXI bursts, DRAM activity) inherits through span parenting. A
     dispatcher that queued the request before submitting it passes
     [queued_at]: the root span then opens at enqueue time and the
     queue-wait becomes its first child span, so the wait a request
     accumulated in front of the runtime is visible under the command's
     transaction id. *)
  let root =
    match tracer t with
    | None -> None
    | Some tr ->
        let now = Desim.Engine.now t.engine in
        let start =
          match queued_at with Some q when q < now -> q | _ -> now
        in
        let txn = Trace.fresh_txn tr in
        let sp =
          Trace.begin_span tr ~now:start ~txn ~track:"runtime" ~cat:"command"
            ~name:(Printf.sprintf "%s %s/%d" cmd.Cmd_spec.cmd_name system core)
            ()
        in
        Trace.add_arg tr sp "beats" (Trace.Int n);
        (match queued_at with
        | Some q when q < now ->
            ignore
              (Trace.complete_span tr ~start:q ~stop:now ~parent:sp
                 ~track:"runtime" ~cat:"serve" ~name:"queue-wait"
                 ~args:[ ("wait_ps", Trace.Int (now - q)) ]
                 ())
        | _ -> ());
        Some (tr, sp)
  in
  (* the coalesced occupancy covers only the first submission; watchdog
     resends pay their own server operations *)
  let batch_once = ref batch in
  let span = Option.map snd root in
  let finish_root () =
    match root with
    | None -> ()
    | Some (tr, sp) -> Trace.end_span tr ~now:(Desim.Engine.now t.engine) sp
  in
  (* Close the root span when the logical response resolves; response-less
     commands close it at submission (there is nothing to await). *)
  let watch h =
    (match root with
    | None -> ()
    | Some _ ->
        if not cmd.Cmd_spec.has_response then finish_root ()
        else begin
          match h.result with
          | Some _ -> finish_root ()
          | None -> h.waiters <- (fun _ -> finish_root ()) :: h.waiters
        end);
    h
  in
  let submit target_core =
    let b = !batch_once in
    batch_once := None;
    let handles =
      List.mapi
        (fun i (p1, p2) ->
          send_raw ?span ?batch:b t
            {
              Rocc.system_id = sys_id;
              core_id = target_core;
              funct = cmd.Cmd_spec.cmd_funct;
              expects_response = i = n - 1 && cmd.Cmd_spec.has_response;
              payload1 = p1;
              payload2 = p2;
            })
        pairs
    in
    (* the logical response is the last beat's *)
    List.nth handles (n - 1)
  in
  let sys =
    List.nth
      (Soc.design t.soc).Beethoven.Elaborate.config.Beethoven.Config.systems
      sys_id
  in
  let n_cores = sys.Beethoven.Config.n_cores in
  let next_core after =
    let rec go k =
      if k >= n_cores then None
      else
        let c = (after + k) mod n_cores in
        if Hashtbl.mem t.quarantined (sys_id, c) then go (k + 1) else Some c
    in
    go 1
  in
  let fail_quarantined outer =
    fail outer (Printf.sprintf "system %s: all cores quarantined" system);
    (match root with
    | Some (tr, sp) -> Trace.add_arg tr sp "failed" (Trace.Str "quarantined")
    | None -> ());
    finish_root ();
    outer
  in
  (* Never dispatch onto a core already written off: reroute to the next
     healthy core, or settle the handle [Failed] right here — a caller
     polling [try_collect] sees the failure promptly instead of a handle
     stuck [Pending] until a watchdog deadline (or forever when no
     injector armed a watchdog at all). *)
  let entry_core =
    if Hashtbl.mem t.quarantined (sys_id, core) then next_core core
    else Some core
  in
  match (Soc.fault_injector t.soc, entry_core) with
  | _, None -> watch (fail_quarantined (fresh_handle ()))
  | None, Some c -> watch (submit c)
  | Some _, Some c when not cmd.Cmd_spec.has_response ->
      (* nothing to watch: a response-less command cannot be timed out *)
      watch (submit c)
  | Some inj, Some entry ->
      (* Watchdog: if the response misses its deadline, resend (doubling
         the deadline); after [cmd_max_retries] resends quarantine the
         core and reroute to the next healthy one. Commands are therefore
         delivered at-least-once — kernels are assumed idempotent. *)
      let policy = Fault.Policy.default in
      let outer = fresh_handle () in
      let touched = ref [] in
      let succeed v =
        if outer.result = None then begin
          let now = Desim.Engine.now t.engine in
          List.iter
            (fun key ->
              Fault.Injector.resolve_lost inj ~now ~key ~recovered:true)
            !touched;
          resolve outer v
        end
      in
      let rec attempt ~target_core ~tries ~timeout_ps =
        let key = Soc.cmd_key t.soc ~system_id:sys_id ~core_id:target_core in
        if not (List.mem key !touched) then touched := key :: !touched;
        let h = submit target_core in
        (* one attempt is live at a time; settling, rerouting or being
           kicked by a quarantine retires it so the still-scheduled
           deadline event becomes a no-op *)
        let live = ref true in
        let dereg = ref (fun () -> ()) in
        let retire () =
          live := false;
          !dereg ()
        in
        let succeed_with v =
          if outer.raw_at = None then outer.raw_at <- h.raw_at;
          retire ();
          succeed v
        in
        (match h.result with
        | Some v -> succeed_with v
        | None -> h.waiters <- succeed_with :: h.waiters);
        let reroute_or_fail () =
          match next_core target_core with
          | Some c ->
              t.command_retries <- t.command_retries + 1;
              attempt ~target_core:c ~tries:0
                ~timeout_ps:policy.Fault.Policy.cmd_timeout_ps
          | None ->
              let now = Desim.Engine.now t.engine in
              List.iter
                (fun key ->
                  Fault.Injector.resolve_lost inj ~now ~key ~recovered:false)
                !touched;
              ignore (fail_quarantined outer)
        in
        if !live then
        dereg :=
          register_kick t ~system_id:sys_id ~core_id:target_core (fun () ->
              (* the core was quarantined from under this attempt (by
                 another command's watchdog or an external health
                 monitor): reroute or fail now, not at the deadline *)
              if !live && outer.result = None && outer.failed = None then begin
                retire ();
                reroute_or_fail ()
              end);
        Desim.Engine.schedule t.engine ~delay:timeout_ps (fun () ->
            if !live && outer.result = None && h.result = None then begin
              t.command_timeouts <- t.command_timeouts + 1;
              (match root with
              | Some (tr, sp) ->
                  Trace.instant tr
                    ~now:(Desim.Engine.now t.engine)
                    ~parent:sp ~track:"runtime" ~cat:"fault"
                    ~name:
                      (Printf.sprintf "timeout sys=%d core=%d try=%d" sys_id
                         target_core tries)
                    ()
              | None -> ());
              if Hashtbl.mem t.quarantined (sys_id, target_core) then begin
                (* written off since dispatch: no point burning the retry
                   budget on a quarantined core *)
                retire ();
                reroute_or_fail ()
              end
              else if tries < policy.Fault.Policy.cmd_max_retries then begin
                t.command_retries <- t.command_retries + 1;
                retire ();
                attempt ~target_core ~tries:(tries + 1)
                  ~timeout_ps:(2 * timeout_ps)
              end
              else begin
                (* with several commands outstanding on one core, every
                   one of them runs its retry budget out — the core is
                   quarantined (and logged) exactly once, by whichever
                   watchdog gets there first; the others are kicked into
                   their reroute immediately *)
                Hashtbl.replace t.quarantined (sys_id, target_core) ();
                let now = Desim.Engine.now t.engine in
                Fault.Injector.log inj ~now ~cls:Fault.Class.Core_hang
                  ~kind:Fault.Log.Quarantined
                  ~site:
                    (Printf.sprintf
                       "sys=%d core=%d after %d timed-out attempt(s)%s"
                       sys_id target_core (tries + 1)
                       (if
                          Soc.core_hung t.soc ~system_id:sys_id
                            ~core_id:target_core
                        then " (injected hang)"
                        else ""));
                (match root with
                | Some (tr, sp) ->
                    Trace.add_arg tr sp
                      (Printf.sprintf "quarantine[%d/%d]" sys_id target_core)
                      (Trace.Int (Fault.Injector.last_id inj))
                | None -> ());
                retire ();
                fire_kicks t ~system_id:sys_id ~core_id:target_core;
                reroute_or_fail ()
              end
            end)
      in
      attempt ~target_core:entry ~tries:0
        ~timeout_ps:policy.Fault.Policy.cmd_timeout_ps;
      watch outer

let try_get h = h.result

type collect = Pending | Done of int64 | Failed of string

let try_collect h =
  match (h.result, h.failed) with
  | Some v, _ -> Done v
  | None, Some msg -> Failed msg
  | None, None -> Pending

let response_seen_at h = h.raw_at

let on_settled h k =
  match (h.result, h.failed) with
  | Some v, _ -> k (Ok v)
  | None, Some msg -> k (Error msg)
  | None, None -> h.settle_waiters <- k :: h.settle_waiters

let await t h =
  let module E = Desim.Engine in
  let rec spin () =
    match (h.result, h.failed) with
    | Some v, _ -> v
    | None, Some msg -> failwith ("fpga_handle.await: " ^ msg)
    | None, None ->
        if E.step t.engine then spin ()
        else failwith "fpga_handle.await: simulation drained with no response"
  in
  spin ()

let await_all t hs = List.map (await t) hs
let allocator t = t.alloc
let command_timeouts t = t.command_timeouts
let command_retries t = t.command_retries
let server_busy_ps t = t.server_busy_ps
