"""Time one cold start: ``import twpasim``, then the device build every
CLI invocation makes (equilibrium phase, cell coefficients, medium).

Run in a fresh interpreter; prints one JSON object with the two phases'
times and the file twpasim was imported from.
"""

import json
import time

t0 = time.perf_counter()
import twpasim  # noqa: E402

t1 = time.perf_counter()
spec = twpasim.SnailSpec(I0=2.2e-6, r=0.07, Cg=250e-15, CJ=35e-15, N=700,
                         tan_delta=2.9e-3)
coeffs = twpasim.cell_coefficients(spec, twpasim.equilibrium_phase(spec, 0.35))
twpasim.MediumParams.from_cell(spec, coeffs)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "device_s": t2 - t1,
                  "module": twpasim.__file__}))
