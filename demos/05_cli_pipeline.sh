#!/bin/sh
# Full command-line pipeline: synthesize inputs, simulate an acquisition,
# reconstruct, score, and finally let the toolkit audit its own solvers
# against the dense brute-force reference.
#
# Everything lands in a scratch directory; every file output gets a
# manifest with config and checksums so runs are auditable and
# byte-for-byte reproducible.

set -e
DIR="$(mktemp -d)"
echo "working in $DIR"

# 1. write a scene cube, a PSF stack, and an RGB response with the library
python3 - "$DIR" <<'EOF'
import sys
import numpy as np
from snapspec.synth import band_wavelengths, rgb_response, rotating_psf_stack, smooth_cube
from snapspec.tensorio import save_response_csv, save_tensor

root = sys.argv[1]
save_tensor(smooth_cube(64, 64, 8, seed=0), root + "/cube.htns")
save_tensor(rotating_psf_stack(8, 9), root + "/psf.htns")
save_response_csv(root + "/response.csv", band_wavelengths(8), rgb_response(8))
print("wrote cube.htns, psf.htns, response.csv")
EOF

# 2. encode the cube into a noisy coded RGB frame
snapspec simulate \
    --cube "$DIR/cube.htns" --psf "$DIR/psf.htns" --response "$DIR/response.csv" \
    --out "$DIR/coded.htns" --noise default --seed 0 \
    --export-pgm "$DIR/coded_preview.pgm"

# 3. reconstruct with 7 unrolled stages and a total-variation prior;
#    zero init avoids the mean start's spectral bias (see demo 03)
snapspec reconstruct \
    --coded "$DIR/coded.htns" --psf "$DIR/psf.htns" --response "$DIR/response.csv" \
    --out "$DIR/recon.htns" --stages 7 --denoiser tv:lambda=0.01,iters=60 \
    --init zero --trace

echo "--- per-stage trace ---"
cat "$DIR/recon.htns.trace.csv"

# 4. score against the ground truth (JSON on stdout, summary on stderr)
snapspec evaluate \
    --recon "$DIR/recon.htns" --gt "$DIR/cube.htns" --crop 8 \
    --out-json "$DIR/report.json"

# 5. the manifest records tool version, resolved config, and checksums
echo "--- reconstruction manifest ---"
cat "$DIR/recon.htns.manifest.json"

# 6. self-audit: production solvers vs the dense reference implementation
snapspec oracle-check --trials 10

# exit code 4 and FAIL lines if a solver ever drifts from the reference
echo "pipeline complete; artifacts in $DIR"
