"""End-to-end convergence study of the coupled solver.

Each level rebuilds the unfitted mesh (the gap to the true boundary
shrinks superlinearly), runs the relaxed fixed point, and measures errors
against the manufactured fields.  The interface density degree stays fixed
at n = 32 so the spectral exterior error is negligible and the observed
rates isolate the interior discretization: order k+1 in both fields.
"""

from hdgbem import CouplingConfig, convergence_study, manufactured_case, write_study_csv

case = manufactured_case("dipole-plus-constant", constant=3.0)

for k in (1, 2):
    report = convergence_study(case, k, [0.2, 0.1, 0.05], n=32,
                               config=CouplingConfig(omega=0.5, tol=1e-10))
    print(report.summary())
    print("far-field errors:",
          "  ".join(f"{row['err_uinf']:.2e}" for row in report.rows))
    write_study_csv(report, f"study_k{k}.csv")
    print(f"wrote study_k{k}.csv\n")
