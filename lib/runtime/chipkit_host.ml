module Soc = Beethoven.Soc

type t = {
  soc : Soc.t;
  mutable cpu : Riscv.Cpu.t;
  cpi_ps : int;
  system_id : int;
  core : int;
  mutable retired : int;
  mutable commands : int;
}

(* instructions executed per scheduling quantum; one event per instruction
   would be precise but slow, and the CPU's timing is not the experiment *)
let batch = 64

let create ?system ?(core = 0) soc ~program =
  let cpi_ps = (Soc.platform soc).Platform.Device.fabric_clock_ps in
  let systems =
    (Soc.design soc).Beethoven.Elaborate.config.Beethoven.Config.systems
  in
  let system_id =
    match system with
    | None -> 0
    | Some name -> (
        match
          List.mapi (fun i s -> (i, s.Beethoven.Config.sys_name)) systems
          |> List.find_opt (fun (_, n) -> n = name)
        with
        | Some (i, _) -> i
        | None -> invalid_arg ("Chipkit_host: unknown system " ^ name))
  in
  let t =
    {
      soc;
      cpu = Riscv.Cpu.create ~program ();
      cpi_ps;
      system_id;
      core;
      retired = 0;
      commands = 0;
    }
  in
  (* rebuild the cpu with the RoCC hook (needs t in scope) *)
  t.cpu <-
    Riscv.Cpu.create
      ~on_rocc:(fun req supply ->
        t.commands <- t.commands + 1;
        let u32 v = Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL in
        Soc.send_command t.soc
          {
            Beethoven.Rocc.system_id = t.system_id;
            core_id = t.core;
            funct = req.Riscv.Cpu.funct7;
            expects_response = req.Riscv.Cpu.expects_result;
            payload1 = u32 req.Riscv.Cpu.rs1_value;
            payload2 = u32 req.Riscv.Cpu.rs2_value;
          }
          ~on_response:(fun resp ->
            supply (Int64.to_int32 resp.Beethoven.Rocc.resp_data)))
      ~program ();
  t

let cpu t = t.cpu
let instructions_retired t = t.retired
let commands_issued t = t.commands

let start t ~on_halt =
  let engine = Soc.engine t.soc in
  let rec quantum () =
    (* execute up to [batch] instructions, one cpi each *)
    let n = ref 0 in
    while !n < batch && Riscv.Cpu.step t.cpu do
      incr n
    done;
    t.retired <- t.retired + !n;
    if Riscv.Cpu.halted t.cpu then
      Desim.Engine.schedule engine ~delay:(!n * t.cpi_ps) on_halt
    else if Riscv.Cpu.blocked_on_rocc t.cpu then
      (* the response callback unblocks the pipeline; poll for it at the
         host clock until the interlock clears *)
      Desim.Engine.schedule engine
        ~delay:(max 1 !n * t.cpi_ps)
        (fun () -> wait_unblock ())
    else Desim.Engine.schedule engine ~delay:(!n * t.cpi_ps) quantum
  and wait_unblock () =
    if Riscv.Cpu.blocked_on_rocc t.cpu then
      Desim.Engine.schedule engine ~delay:t.cpi_ps wait_unblock
    else quantum ()
  in
  quantum ()
