(* Deterministic, seed-driven fault injection: PRNG streams, the SECDED
   ECC code + scrub model, campaign plans, the structured fault log, and
   the injector the stack's recovery machinery reports back to. *)

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

module Rng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let create ~seed = { state = seed }

  let next t =
    t.state <- Int64.add t.state golden;
    let z = t.state in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let float t =
    (* top 53 bits -> uniform in [0,1) *)
    Int64.to_float (Int64.shift_right_logical (next t) 11)
    /. 9007199254740992.

  let int t ~bound =
    if bound <= 0 then invalid_arg "Fault.Rng.int: bound must be positive";
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1)
                    (Int64.of_int bound))
end

let lcg ~seed =
  let state = ref seed in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state

(* ------------------------------------------------------------------ *)
(* SECDED Hamming(72,64)                                               *)
(* ------------------------------------------------------------------ *)

module Ecc = struct
  (* Codeword positions 1..71; positions 1,2,4,8,16,32,64 hold the seven
     Hamming check bits, the remaining 64 hold data bits in order. An
     overall parity bit (over positions 1..71) extends correction to
     SECDED. The check byte is [p0..p6] in bits 0..6 and the overall
     parity in bit 7. *)

  let is_pow2 p = p land (p - 1) = 0

  (* data bit index -> codeword position *)
  let data_pos =
    let a = Array.make 64 0 in
    let i = ref 0 in
    for p = 1 to 71 do
      if not (is_pow2 p) then begin
        a.(!i) <- p;
        incr i
      end
    done;
    a

  (* codeword position -> data bit index (or -1 for check positions) *)
  let pos_data =
    let a = Array.make 72 (-1) in
    Array.iteri (fun i p -> a.(p) <- i) data_pos;
    a

  let data_bit w i = Int64.to_int (Int64.shift_right_logical w i) land 1

  let hamming_checks w =
    (* p_i = parity over data positions whose index has bit i set *)
    let checks = ref 0 in
    for i = 0 to 6 do
      let p = ref 0 in
      for b = 0 to 63 do
        if data_pos.(b) land (1 lsl i) <> 0 then p := !p lxor data_bit w b
      done;
      checks := !checks lor (!p lsl i)
    done;
    !checks

  let popcount_parity v =
    let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc lxor (v land 1)) in
    go v 0

  let word_parity w =
    let x = Int64.logxor w (Int64.shift_right_logical w 32) in
    let x = Int64.logxor x (Int64.shift_right_logical x 16) in
    let x = Int64.logxor x (Int64.shift_right_logical x 8) in
    let x = Int64.logxor x (Int64.shift_right_logical x 4) in
    let x = Int64.logxor x (Int64.shift_right_logical x 2) in
    let x = Int64.logxor x (Int64.shift_right_logical x 1) in
    Int64.to_int x land 1

  let encode w =
    let h = hamming_checks w in
    (* overall parity over positions 1..71 = data bits ^ check bits *)
    let overall = word_parity w lxor popcount_parity h in
    h lor (overall lsl 7)

  type verdict = Ok | Corrected of int64 | Uncorrectable

  let decode ~data ~check =
    let stored_h = check land 0x7f in
    let stored_overall = (check lsr 7) land 1 in
    let h = hamming_checks data in
    let syndrome = h lxor stored_h in
    let overall = word_parity data lxor popcount_parity stored_h in
    let parity_mismatch = overall <> stored_overall in
    if syndrome = 0 then
      if parity_mismatch then Corrected data (* overall parity bit flipped *)
      else Ok
    else if not parity_mismatch then Uncorrectable (* even # of flips *)
    else if syndrome <= 71 && pos_data.(syndrome) >= 0 then
      (* single data-bit error at codeword position [syndrome] *)
      Corrected (Int64.logxor data (Int64.shift_left 1L pos_data.(syndrome)))
    else if syndrome <= 71 then Corrected data (* a check bit flipped *)
    else Uncorrectable (* syndrome points outside the codeword *)

  (* ---- the memory-model half: latched codewords + scrub-on-read ---- *)

  type t = {
    latched : (int, int) Hashtbl.t; (* word addr -> check byte *)
    mutable n_corrected : int;
    mutable n_uncorrectable : int;
  }

  let create () =
    { latched = Hashtbl.create 64; n_corrected = 0; n_uncorrectable = 0 }

  let inject_flip t ~get ~set ~word_addr ~bit =
    if bit < 0 || bit > 63 then invalid_arg "Ecc.inject_flip: bit";
    let word_addr = word_addr land lnot 7 in
    let w = get word_addr in
    if not (Hashtbl.mem t.latched word_addr) then
      (* first corruption since the word was last rewritten: the cells
         held a valid codeword until now *)
      Hashtbl.replace t.latched word_addr (encode w);
    set word_addr (Int64.logxor w (Int64.shift_left 1L bit))

  (* Both walks below cost one lookup per word of the burst; with nothing
     latched (no flip injected, or every one already scrubbed) there is
     nothing for them to find. *)
  let note_write t ~addr ~bytes =
    if Hashtbl.length t.latched > 0 then begin
      let first = addr land lnot 7 in
      let last = (addr + bytes - 1) land lnot 7 in
      let a = ref first in
      while !a <= last do
        Hashtbl.remove t.latched !a;
        a := !a + 8
      done
    end

  let scrub t ~get ~set ~addr ~bytes =
    if Hashtbl.length t.latched = 0 then (0, 0)
    else begin
      let first = addr land lnot 7 in
      let last = (addr + bytes - 1) land lnot 7 in
      let corrected = ref 0 and uncorrectable = ref 0 in
      let a = ref first in
      while !a <= last do
        (match Hashtbl.find_opt t.latched !a with
        | None -> ()
        | Some check -> (
            match decode ~data:(get !a) ~check with
            | Ok -> Hashtbl.remove t.latched !a
            | Corrected w ->
                set !a w;
                Hashtbl.remove t.latched !a;
                incr corrected;
                t.n_corrected <- t.n_corrected + 1
            | Uncorrectable ->
                (* detected, flagged, but the data is gone *)
                Hashtbl.remove t.latched !a;
                incr uncorrectable;
                t.n_uncorrectable <- t.n_uncorrectable + 1));
        a := !a + 8
      done;
      (!corrected, !uncorrectable)
    end

  let corrected t = t.n_corrected
  let uncorrectable t = t.n_uncorrectable
end

(* ------------------------------------------------------------------ *)
(* Fault classes                                                       *)
(* ------------------------------------------------------------------ *)

module Class = struct
  type t =
    | Dram_flip
    | Dram_double_flip
    | Axi_read_error
    | Axi_write_error
    | Noc_cmd_drop
    | Noc_resp_drop
    | Noc_delay
    | Core_hang
    | Dma_fail
    | Device_offline
    | Heartbeat_loss
    | Device_brownout

  (* Device-scope classes are appended, never inserted: a class's index
     seeds its decision stream, so the prefix must stay frozen for the
     digests of existing campaigns to survive new classes. *)
  let all =
    [
      Dram_flip; Dram_double_flip; Axi_read_error; Axi_write_error;
      Noc_cmd_drop; Noc_resp_drop; Noc_delay; Core_hang; Dma_fail;
      Device_offline; Heartbeat_loss; Device_brownout;
    ]

  let name = function
    | Dram_flip -> "dram-flip"
    | Dram_double_flip -> "dram-double-flip"
    | Axi_read_error -> "axi-read-error"
    | Axi_write_error -> "axi-write-error"
    | Noc_cmd_drop -> "noc-cmd-drop"
    | Noc_resp_drop -> "noc-resp-drop"
    | Noc_delay -> "noc-delay"
    | Core_hang -> "core-hang"
    | Dma_fail -> "dma-fail"
    | Device_offline -> "device-offline"
    | Heartbeat_loss -> "heartbeat-loss"
    | Device_brownout -> "device-brownout"

  let index c =
    let rec go i = function
      | [] -> assert false
      | x :: rest -> if x = c then i else go (i + 1) rest
    in
    go 0 all

  let count = List.length all
end

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

module Plan = struct
  type hang = { hang_system : int; hang_core : int; hang_after : int }

  type t = {
    seed : int;
    rates : (Class.t * float) list;
    max_delay_ps : int;
    hang : hang option;
  }

  let none = { seed = 0; rates = []; max_delay_ps = 0; hang = None }

  let default_recoverable ?(seed = 1) () =
    {
      seed;
      rates =
        [
          (Class.Dram_flip, 0.02);
          (Class.Axi_read_error, 0.02);
          (Class.Axi_write_error, 0.02);
          (Class.Noc_cmd_drop, 0.03);
          (Class.Noc_resp_drop, 0.03);
          (Class.Noc_delay, 0.05);
          (Class.Dma_fail, 0.10);
        ];
      max_delay_ps = 100_000;
      hang = None;
    }

  let with_hang ?(after = 1) ~system ~core t =
    { t with hang = Some { hang_system = system; hang_core = core;
                           hang_after = after } }

  let scale k t =
    {
      t with
      rates = List.map (fun (c, r) -> (c, Float.min 1.0 (r *. k))) t.rates;
    }
end

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

module Policy = struct
  type t = {
    axi_max_retries : int;
    axi_backoff_ps : int;
    cmd_timeout_ps : int;
    cmd_max_retries : int;
    partial_timeout_ps : int;
    dma_max_retries : int;
    dma_backoff_ps : int;
  }

  let default =
    {
      axi_max_retries = 4;
      axi_backoff_ps = 50_000;
      cmd_timeout_ps = 300_000_000;
      cmd_max_retries = 3;
      partial_timeout_ps = 75_000_000;
      dma_max_retries = 4;
      dma_backoff_ps = 100_000;
    }
end

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)
(* ------------------------------------------------------------------ *)

module Log = struct
  type kind = Injected | Corrected | Recovered | Unrecovered | Quarantined

  type entry = { time : int; cls : Class.t; kind : kind; site : string }

  let kind_name = function
    | Injected -> "INJECT"
    | Corrected -> "CORRECT"
    | Recovered -> "RECOVER"
    | Unrecovered -> "LOST"
    | Quarantined -> "QUARANTINE"

  let render_entry e =
    Printf.sprintf "%12d ps  %-10s %-16s %s" e.time (kind_name e.kind)
      (Class.name e.cls) e.site

  let render entries =
    String.concat "\n" (List.map render_entry entries)
end

(* ------------------------------------------------------------------ *)
(* Injector                                                            *)
(* ------------------------------------------------------------------ *)

module Injector = struct
  type t = {
    mutable plan : Plan.t; (* mutable so a hang can be armed mid-run *)
    scope : int option; (* the device/shard this child was forked for *)
    ecc : Ecc.t;
    streams : Rng.t array; (* one per class, decision stream *)
    aux : Rng.t; (* victim selection, delays, error-code choice *)
    rates : float array;
    n_injected : int array;
    n_recovered : int array;
    n_unrecovered : int array;
    mutable n_quarantines : int;
    mutable log_rev : Log.entry list;
    mutable n_logged : int; (* = List.length log_rev; ids are indices *)
    (* lost-message faults pending resolution, by routing key *)
    lost : (int, (Class.t * string) list) Hashtbl.t;
    mutable hang_seen : int; (* commands dispatched to the hang victim *)
    mutable hang_fired : bool;
  }

  let create (plan : Plan.t) =
    let seed64 i =
      Rng.next (Rng.create ~seed:(Int64.of_int ((plan.Plan.seed * 1021) + i)))
    in
    let rates = Array.make Class.count 0. in
    List.iter
      (fun (c, r) -> rates.(Class.index c) <- r)
      plan.Plan.rates;
    {
      plan;
      scope = None;
      ecc = Ecc.create ();
      streams = Array.init Class.count (fun i -> Rng.create ~seed:(seed64 i));
      aux = Rng.create ~seed:(seed64 1000);
      rates;
      n_injected = Array.make Class.count 0;
      n_recovered = Array.make Class.count 0;
      n_unrecovered = Array.make Class.count 0;
      n_quarantines = 0;
      log_rev = [];
      n_logged = 0;
      lost = Hashtbl.create 8;
      hang_seen = 0;
      hang_fired = false;
    }

  let plan t = t.plan
  let ecc t = t.ecc

  (* A child injector for an enclosed scope (one device of a cluster).
     The child's seed is a pure integer mix of (parent plan seed, scope):
     forking draws nothing from the parent's streams, so a single-device
     campaign is bit-identical whether or not children were forked, and
     sibling scopes get mutually independent streams. *)
  let fork ?plan t ~scope =
    let base = match plan with Some p -> p | None -> t.plan in
    let mixed =
      Rng.next
        (Rng.create
           ~seed:
             (Int64.add
                (Int64.mul (Int64.of_int t.plan.Plan.seed) 0x100000001B3L)
                (Int64.of_int ((scope * 2_654_435_769) + 1))))
    in
    let seed = Int64.to_int (Int64.shift_right_logical mixed 2) in
    { (create { base with Plan.seed }) with scope = Some scope }

  let scope t = t.scope

  let decide t cls =
    let i = Class.index cls in
    let r = t.rates.(i) in
    r > 0. && Rng.float t.streams.(i) < r

  let draw_delay_ps t =
    let bound = max 1 t.plan.Plan.max_delay_ps in
    1 + Rng.int t.aux ~bound

  let draw_int t ~bound = Rng.int t.aux ~bound

  (* Arm (or re-arm) a core hang on a live injector. The decision and
     aux streams are untouched, so a campaign that never reaches the
     victim is bit-identical to one run without the call; the hang
     counters restart so the next [hang_after]-th dispatch fires. *)
  let set_hang ?(after = 1) t ~system ~core =
    t.plan <-
      { t.plan with
        Plan.hang =
          Some { Plan.hang_system = system; hang_core = core;
                 hang_after = after } };
    t.hang_seen <- 0;
    t.hang_fired <- false

  let should_hang t ~system ~core =
    match t.plan.Plan.hang with
    | Some h
      when (not t.hang_fired)
           && h.Plan.hang_system = system && h.Plan.hang_core = core ->
        t.hang_seen <- t.hang_seen + 1;
        if t.hang_seen >= h.Plan.hang_after then begin
          t.hang_fired <- true;
          true
        end
        else false
    | _ -> false

  let log t ~now ~cls ~kind ~site =
    let i = Class.index cls in
    (match kind with
    | Log.Injected -> t.n_injected.(i) <- t.n_injected.(i) + 1
    | Log.Corrected | Log.Recovered ->
        t.n_recovered.(i) <- t.n_recovered.(i) + 1
    | Log.Unrecovered -> t.n_unrecovered.(i) <- t.n_unrecovered.(i) + 1
    | Log.Quarantined -> t.n_quarantines <- t.n_quarantines + 1);
    t.log_rev <- { Log.time = now; cls; kind; site } :: t.log_rev;
    t.n_logged <- t.n_logged + 1

  (* Ledger id of the most recent entry: its index in [entries] order.
     Trace spans record this to cross-reference the fault that explains a
     retry or quarantine. -1 before anything is logged. *)
  let last_id t = t.n_logged - 1

  let note_lost t ~now ~cls ~key ~site =
    log t ~now ~cls ~kind:Log.Injected ~site;
    let cur = Option.value ~default:[] (Hashtbl.find_opt t.lost key) in
    Hashtbl.replace t.lost key ((cls, site) :: cur)

  let resolve_lost t ~now ~key ~recovered =
    match Hashtbl.find_opt t.lost key with
    | None -> ()
    | Some pending ->
        Hashtbl.remove t.lost key;
        List.iter
          (fun (cls, site) ->
            log t ~now ~cls
              ~kind:(if recovered then Log.Recovered else Log.Unrecovered)
              ~site)
          (List.rev pending)

  let injected t cls = t.n_injected.(Class.index cls)
  let recovered t cls = t.n_recovered.(Class.index cls)
  let unrecovered t cls = t.n_unrecovered.(Class.index cls)
  let total a = Array.fold_left ( + ) 0 a
  let total_injected t = total t.n_injected
  let total_recovered t = total t.n_recovered
  let total_unrecovered t = total t.n_unrecovered

  let pending_lost t =
    Hashtbl.fold (fun _ l acc -> acc + List.length l) t.lost 0

  let quarantines t = t.n_quarantines
  let entries t = List.rev t.log_rev

  let counters_line t =
    let per_class =
      List.filter_map
        (fun c ->
          let i = Class.index c in
          if
            t.n_injected.(i) = 0 && t.n_recovered.(i) = 0
            && t.n_unrecovered.(i) = 0
          then None
          else
            Some
              (Printf.sprintf "%s:%d/%d/%d" (Class.name c) t.n_injected.(i)
                 t.n_recovered.(i) t.n_unrecovered.(i)))
        Class.all
    in
    Printf.sprintf "injected=%d recovered=%d unrecovered=%d quarantines=%d %s"
      (total_injected t) (total_recovered t) (total_unrecovered t)
      t.n_quarantines
      (String.concat " " per_class)

  let report t =
    let buf = Buffer.create 512 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    pr "fault campaign (seed %d):\n" t.plan.Plan.seed;
    pr "  %-18s %9s %10s %12s\n" "class" "injected" "recovered" "unrecovered";
    List.iter
      (fun c ->
        let i = Class.index c in
        if t.n_injected.(i) > 0 || t.n_unrecovered.(i) > 0 then
          pr "  %-18s %9d %10d %12d\n" (Class.name c) t.n_injected.(i)
            t.n_recovered.(i) t.n_unrecovered.(i))
      Class.all;
    pr "  total: %d injected, %d recovered, %d unrecovered, %d quarantine(s)\n"
      (total_injected t) (total_recovered t) (total_unrecovered t)
      t.n_quarantines;
    if t.log_rev <> [] then begin
      pr "fault log:\n";
      List.iter (fun e -> pr "  %s\n" (Log.render_entry e)) (entries t)
    end;
    Buffer.contents buf
end
