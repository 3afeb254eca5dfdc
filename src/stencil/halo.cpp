#include "stencil/halo.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace repro::stencil {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("halo: ") + what);
}

void require_plane_count(int nplanes) {
  require(nplanes >= 1, "nplanes must be >= 1");
}

/// Doubles in one plane of a `depth`-deep band packed on `side`.
std::size_t band_size(const TileGeom& g, Side side, int depth) {
  require(depth >= 1, "band depth must be >= 1");
  if (side == Side::North || side == Side::South) {
    require(depth <= g.h, "band depth exceeds tile height");
    return static_cast<std::size_t>(depth) * g.w;
  }
  require(depth <= g.w, "band depth exceeds tile width");
  return static_cast<std::size_t>(g.h) * depth;
}

/// Doubles in one plane of an s x s corner block.
std::size_t corner_size(const TileGeom& g, int s) {
  require(s >= 1 && s <= g.h && s <= g.w, "corner block exceeds tile");
  return static_cast<std::size_t>(s) * s;
}

/// Offset of plane p in a buffer of `g`-shaped planes.
std::size_t plane(const TileGeom& g, int p) {
  return static_cast<std::size_t>(p) * g.size();
}

}  // namespace

const char* side_name(Side s) {
  switch (s) {
    case Side::North: return "north";
    case Side::South: return "south";
    case Side::West: return "west";
    case Side::East: return "east";
  }
  return "?";
}

std::size_t pack_band_into(double* dst, const double* ext, const TileGeom& g,
                           Side side, int depth, int nplanes) {
  require_plane_count(nplanes);
  const std::size_t per = band_size(g, side, depth);
  for (int p = 0; p < nplanes; ++p) {
    const double* src = ext + plane(g, p);
    double* out = dst + per * static_cast<std::size_t>(p);
    if (side == Side::North || side == Side::South) {
      const int first = side == Side::North ? 0 : g.h - depth;
      for (int r = 0; r < depth; ++r) {
        std::memcpy(out + static_cast<std::size_t>(r) * g.w,
                    src + g.idx(first + r, 0),
                    static_cast<std::size_t>(g.w) * sizeof(double));
      }
    } else {
      const int first = side == Side::West ? 0 : g.w - depth;
      for (int i = 0; i < g.h; ++i) {
        for (int c = 0; c < depth; ++c) {
          out[static_cast<std::size_t>(i) * depth + c] =
              src[g.idx(i, first + c)];
        }
      }
    }
  }
  return per * static_cast<std::size_t>(nplanes);
}

std::size_t pack_corner_into(double* dst, const double* ext, const TileGeom& g,
                             Corner corner, int s, int nplanes) {
  require_plane_count(nplanes);
  const std::size_t per = corner_size(g, s);
  const int r0 = (corner == Corner::NW || corner == Corner::NE) ? 0 : g.h - s;
  const int c0 = (corner == Corner::NW || corner == Corner::SW) ? 0 : g.w - s;
  for (int p = 0; p < nplanes; ++p) {
    const double* src = ext + plane(g, p);
    double* out = dst + per * static_cast<std::size_t>(p);
    for (int r = 0; r < s; ++r) {
      std::memcpy(out + static_cast<std::size_t>(r) * s,
                  src + g.idx(r0 + r, c0),
                  static_cast<std::size_t>(s) * sizeof(double));
    }
  }
  return per * static_cast<std::size_t>(nplanes);
}

std::vector<double> pack_band(const double* ext, const TileGeom& g, Side side,
                              int depth, int nplanes) {
  require_plane_count(nplanes);
  std::vector<double> band(band_size(g, side, depth) *
                           static_cast<std::size_t>(nplanes));
  pack_band_into(band.data(), ext, g, side, depth, nplanes);
  return band;
}

void unpack_band(double* ext, const TileGeom& g, Side side,
                 std::span<const double> band, int depth, int nplanes) {
  require_plane_count(nplanes);
  const bool rows = side == Side::North || side == Side::South;
  const int ghost = side == Side::North  ? g.gn
                    : side == Side::South ? g.gs
                    : side == Side::West  ? g.gw
                                          : g.ge;
  require(depth == ghost, "band depth must equal ghost depth");
  const std::size_t per = static_cast<std::size_t>(depth) * (rows ? g.w : g.h);
  require(band.size() == per * static_cast<std::size_t>(nplanes),
          "band size mismatch");
  for (int p = 0; p < nplanes; ++p) {
    double* dst = ext + plane(g, p);
    const double* src = band.data() + per * static_cast<std::size_t>(p);
    if (rows) {
      // North ghost rows -depth..-1 map to band rows 0..depth-1 (producer's
      // bottom rows, global row order preserved). South ghost rows h..h+d-1
      // map to the producer's top rows in the same order.
      const int first = side == Side::North ? -depth : g.h;
      for (int r = 0; r < depth; ++r) {
        std::memcpy(dst + g.idx(first + r, 0),
                    src + static_cast<std::size_t>(r) * g.w,
                    static_cast<std::size_t>(g.w) * sizeof(double));
      }
    } else {
      const int first = side == Side::West ? -depth : g.w;
      for (int i = 0; i < g.h; ++i) {
        for (int c = 0; c < depth; ++c) {
          dst[g.idx(i, first + c)] =
              src[static_cast<std::size_t>(i) * depth + c];
        }
      }
    }
  }
}

std::vector<double> pack_corner(const double* ext, const TileGeom& g,
                                Corner corner, int s, int nplanes) {
  require_plane_count(nplanes);
  std::vector<double> block(corner_size(g, s) *
                            static_cast<std::size_t>(nplanes));
  pack_corner_into(block.data(), ext, g, corner, s, nplanes);
  return block;
}

void unpack_corner(double* ext, const TileGeom& g, Corner corner,
                   std::span<const double> block, int s, int nplanes) {
  require_plane_count(nplanes);
  const std::size_t per = static_cast<std::size_t>(s) * s;
  require(block.size() == per * static_cast<std::size_t>(nplanes),
          "corner block size mismatch");
  // Ghost extents at this corner.
  const int depth_r = (corner == Corner::NW || corner == Corner::NE) ? g.gn : g.gs;
  const int depth_c = (corner == Corner::NW || corner == Corner::SW) ? g.gw : g.ge;
  require(depth_r <= s && depth_c <= s, "ghost deeper than corner block");

  for (int p = 0; p < nplanes; ++p) {
    double* dst = ext + plane(g, p);
    const double* src = block.data() + per * static_cast<std::size_t>(p);
    for (int a = 1; a <= depth_r; ++a) {
      for (int b = 1; b <= depth_c; ++b) {
        // Consumer ghost cell at distance (a,b) into the corner equals the
        // diagonal producer's core cell at distance (a,b) from its opposite
        // corner, i.e. block element (s-a, s-b) mirrored appropriately.
        int gi = 0;
        int gj = 0;
        int br = 0;
        int bc = 0;
        switch (corner) {
          case Corner::NW:
            gi = -a; gj = -b; br = s - a; bc = s - b; break;
          case Corner::NE:
            gi = -a; gj = g.w - 1 + b; br = s - a; bc = b - 1; break;
          case Corner::SW:
            gi = g.h - 1 + a; gj = -b; br = a - 1; bc = s - b; break;
          case Corner::SE:
            gi = g.h - 1 + a; gj = g.w - 1 + b; br = a - 1; bc = b - 1; break;
        }
        dst[g.idx(gi, gj)] = src[static_cast<std::size_t>(br) * s + bc];
      }
    }
  }
}

void copy_local_line(double* ext, const TileGeom& g, Side side,
                     const double* nbr, const TileGeom& ng, int depth,
                     int nplanes) {
  require_plane_count(nplanes);
  require(depth >= 1, "local line depth must be >= 1");
  switch (side) {
    case Side::West:
    case Side::East: {
      require(g.gn == ng.gn && g.gs == ng.gs && g.h == ng.h,
              "row extents misaligned for local line copy");
      require((side == Side::West ? g.gw : g.ge) == depth,
              "local line depth must equal ghost depth");
      require(depth <= ng.w, "local line deeper than neighbor tile");
      for (int p = 0; p < nplanes; ++p) {
        double* dst = ext + plane(g, p);
        const double* src = nbr + plane(ng, p);
        for (int d = 0; d < depth; ++d) {
          const int dst_col = side == Side::West ? -depth + d : g.w + d;
          const int src_col = side == Side::West ? ng.w - depth + d : d;
          for (int i = -g.gn; i < g.h + g.gs; ++i) {
            dst[g.idx(i, dst_col)] = src[ng.idx(i, src_col)];
          }
        }
      }
      break;
    }
    case Side::North:
    case Side::South: {
      require(g.gw == ng.gw && g.ge == ng.ge && g.w == ng.w,
              "col extents misaligned for local line copy");
      require((side == Side::North ? g.gn : g.gs) == depth,
              "local line depth must equal ghost depth");
      require(depth <= ng.h, "local line deeper than neighbor tile");
      for (int p = 0; p < nplanes; ++p) {
        double* dst = ext + plane(g, p);
        const double* src = nbr + plane(ng, p);
        for (int d = 0; d < depth; ++d) {
          const int dst_row = side == Side::North ? -depth + d : g.h + d;
          const int src_row = side == Side::North ? ng.h - depth + d : d;
          std::memcpy(dst + g.idx(dst_row, -g.gw),
                      src + ng.idx(src_row, -ng.gw),
                      static_cast<std::size_t>(g.ld()) * sizeof(double));
        }
      }
      break;
    }
  }
}

void copy_local_corner(double* ext, const TileGeom& g, Corner corner,
                       const double* diag, const TileGeom& dg, int nplanes) {
  require_plane_count(nplanes);
  const int depth_r = (corner == Corner::NW || corner == Corner::NE) ? g.gn : g.gs;
  const int depth_c = (corner == Corner::NW || corner == Corner::SW) ? g.gw : g.ge;
  require(depth_r <= dg.h && depth_c <= dg.w,
          "local corner deeper than diagonal tile");
  for (int p = 0; p < nplanes; ++p) {
    double* dst = ext + plane(g, p);
    const double* src = diag + plane(dg, p);
    for (int a = 1; a <= depth_r; ++a) {
      for (int b = 1; b <= depth_c; ++b) {
        int gi = 0, gj = 0, si = 0, sj = 0;
        switch (corner) {
          case Corner::NW:
            gi = -a; gj = -b; si = dg.h - a; sj = dg.w - b; break;
          case Corner::NE:
            gi = -a; gj = g.w - 1 + b; si = dg.h - a; sj = b - 1; break;
          case Corner::SW:
            gi = g.h - 1 + a; gj = -b; si = a - 1; sj = dg.w - b; break;
          case Corner::SE:
            gi = g.h - 1 + a; gj = g.w - 1 + b; si = a - 1; sj = b - 1; break;
        }
        dst[g.idx(gi, gj)] = src[dg.idx(si, sj)];
      }
    }
  }
}

}  // namespace repro::stencil
