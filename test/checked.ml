(* Shared by every test executable. The engine records an exception that
   escapes a task in [E.failures] and carries on, so a check made inside
   a task would otherwise be lost. [run_checked] runs the engine (to
   completion, or to quiescence) and re-raises the first such failure;
   a test that expects a task to fail runs the engine itself and asserts
   on [E.failures]. *)

module E = Varan_sim.Engine

let run_checked ?(quiescent = false) ?cycle_budget eng =
  if quiescent then E.run_until_quiescent ?cycle_budget eng
  else E.run ?cycle_budget eng;
  match E.failures eng with [] -> () | (_, e) :: _ -> raise e
